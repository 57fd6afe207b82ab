package runtime

import "lemur/internal/pisa"

// onVisit sets the hook every walk calls once per switch decision
// (Testbed.visit); nil removes it.
func (tb *Testbed) onVisit(f func(ci int, fwd pisa.Forward, frame []byte)) { tb.visit = f }
