package sim

import "time"

// Helpers only this package's tests use.

// After schedules fn to run as an event callback after delay d.
func (e *Env) After(d time.Duration, fn func()) { e.At(e.now+d, fn) }
