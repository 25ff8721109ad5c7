package stats

import (
	"fmt"
	"math"
)

// Dist is a one-dimensional probability distribution that can be sampled
// with a caller-supplied generator, keeping all randomness injectable.
type Dist interface {
	// Sample draws one value.
	Sample(r *RNG) float64
	// Mean returns the distribution's expected value.
	Mean() float64
	// String describes the distribution, e.g. "Normal(1.1, 0.01)".
	String() string
}

// Constant is a degenerate distribution that always returns V.
type Constant struct{ V float64 }

// Sample implements Dist.
func (c Constant) Sample(*RNG) float64 { return c.V }

// Mean implements Dist.
func (c Constant) Mean() float64 { return c.V }

func (c Constant) String() string { return fmt.Sprintf("Const(%g)", c.V) }

// Normal is a Gaussian distribution truncated at Min (values below Min are
// clamped, which keeps durations positive without distorting the bulk of
// the distribution for the small relative sigmas in Table 1).
type Normal struct {
	Mu, Sigma float64
	Min       float64
}

// Sample implements Dist.
func (n Normal) Sample(r *RNG) float64 {
	v := n.Mu + n.Sigma*r.NormFloat64()
	if v < n.Min {
		v = n.Min
	}
	return v
}

// Mean implements Dist. For the small truncation used here the clamp's
// effect on the mean is negligible and ignored.
func (n Normal) Mean() float64 { return n.Mu }

func (n Normal) String() string { return fmt.Sprintf("Normal(%g, %g)", n.Mu, n.Sigma) }

// LogNormal is a log-normal distribution parameterized directly by the
// desired mean and standard deviation of the resulting (not log) variable.
// It models the heavy-tailed, irregular kernel times of the bioinformatics
// and microscopy applications (Fig. 7). Build one with NewLogNormal, which
// derives the parameters of the underlying normal once; a draw is then one
// normal variate and one math.Exp.
type LogNormal struct {
	mean, std float64
	mu, sigma float64 // of the underlying normal
}

// NewLogNormal returns the log-normal distribution with the given mean and
// standard deviation.
func NewLogNormal(mean, std float64) LogNormal {
	v := std * std
	m2 := mean * mean
	sigma2 := math.Log(1 + v/m2)
	mu := math.Log(mean) - sigma2/2
	return LogNormal{mean: mean, std: std, mu: mu, sigma: math.Sqrt(sigma2)}
}

// Sample implements Dist.
func (l LogNormal) Sample(r *RNG) float64 {
	return math.Exp(l.mu + l.sigma*r.NormFloat64())
}

// Mean implements Dist.
func (l LogNormal) Mean() float64 { return l.mean }

func (l LogNormal) String() string { return fmt.Sprintf("LogNormal(%g, %g)", l.mean, l.std) }

// Uniform is a uniform distribution over [Lo, Hi).
type Uniform struct{ Lo, Hi float64 }

// Sample implements Dist.
func (u Uniform) Sample(r *RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }

// Mean implements Dist.
func (u Uniform) Mean() float64 { return (u.Lo + u.Hi) / 2 }

func (u Uniform) String() string { return fmt.Sprintf("Uniform(%g, %g)", u.Lo, u.Hi) }

// Exponential has rate 1/MeanV.
type Exponential struct{ MeanV float64 }

// Sample implements Dist.
func (e Exponential) Sample(r *RNG) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -e.MeanV * math.Log(u)
}

// Mean implements Dist.
func (e Exponential) Mean() float64 { return e.MeanV }

func (e Exponential) String() string { return fmt.Sprintf("Exp(%g)", e.MeanV) }
