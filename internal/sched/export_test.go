package sched

// Closed reports whether the external task stream has been closed.
func (p *Pending) Closed() bool { return p.closed.Load() }
