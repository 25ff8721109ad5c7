package sim

// EnvOption configures NewEnv. The zero configuration (no options) is the
// classic single-loop environment, bit-compatible with every prior release:
// NewEnv() with no options constructs exactly the engine the committed
// goldens were produced on.
type EnvOption func(*envConfig)

type envConfig struct {
	seed uint64
}

// WithSeed records the run's seed on the environment (Env.Seed). The engine
// itself consumes no randomness — determinism comes from the event order —
// but workloads conventionally fork their generators from this value, and
// recording it here keeps the provenance of a run inspectable.
func WithSeed(seed uint64) EnvOption {
	return func(c *envConfig) { c.seed = seed }
}

// Seed returns the seed recorded by WithSeed (0 if none was given).
func (e *Env) Seed() uint64 { return e.seed }
