package reach

// SetStamp sets the stamp of the last BFS run, so a test can make the next
// runs wrap it.
func (inc *Incremental) SetStamp(s uint32) { inc.stamp = s }
