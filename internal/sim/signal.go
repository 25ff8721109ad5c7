package sim

// Signal is a one-shot broadcast condition. Callbacks register with OnFire
// until Fire is called, after which all current and future waiters proceed
// immediately. The zero value is an unfired signal.
type Signal struct {
	fired   bool
	waiters []func()
}

// NewSignal returns an unfired signal.
func NewSignal() *Signal { return &Signal{} }

// Fired reports whether the signal has been fired.
func (s *Signal) Fired() bool { return s.fired }

// Fire marks the signal fired and schedules all waiters at the current
// virtual time, in registration order. Firing an already-fired signal is a
// no-op.
func (s *Signal) Fire(e *Env) {
	if s.fired {
		return
	}
	s.fired = true
	for _, fn := range s.waiters {
		e.Defer(fn)
	}
	s.waiters = nil
}

// OnFire arranges for fn to run when the signal fires. If the signal has
// already fired, fn runs inline before OnFire returns. fn must not block.
func (s *Signal) OnFire(e *Env, fn func()) {
	if s.fired {
		fn()
		return
	}
	s.waiters = append(s.waiters, fn)
}
