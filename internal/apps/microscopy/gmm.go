package microscopy

import (
	"encoding/json"
	"fmt"
	"math"

	"rocket/internal/stats"
)

// Point is one 2D fluorophore localization.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Particle is a point cloud of localizations, the unit of comparison.
// Particles are stored as JSON (§5.3).
type Particle struct {
	ID     int     `json:"id"`
	Points []Point `json:"points"`
}

// encodeJSON serializes a particle.
func encodeJSON(p *Particle) ([]byte, error) { return json.Marshal(p) }

// decodeJSON parses a particle file.
func decodeJSON(raw []byte) (*Particle, error) {
	var p Particle
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, fmt.Errorf("microscopy: bad particle JSON: %w", err)
	}
	if len(p.Points) == 0 {
		return nil, fmt.Errorf("microscopy: particle %d has no localizations", p.ID)
	}
	return &p, nil
}

// centroid returns the mean of the points.
func (p *Particle) centroid() Point {
	var cx, cy float64
	for _, pt := range p.Points {
		cx += pt.X
		cy += pt.Y
	}
	n := float64(len(p.Points))
	return Point{cx / n, cy / n}
}

// centered returns a copy translated so its centroid is the origin.
func (p *Particle) centered() *Particle {
	c := p.centroid()
	out := &Particle{ID: p.ID, Points: make([]Point, len(p.Points))}
	for i, pt := range p.Points {
		out.Points[i] = Point{pt.X - c.X, pt.Y - c.Y}
	}
	return out
}

// rotated returns a copy rotated by theta radians about the origin.
func (p *Particle) rotated(theta float64) *Particle {
	s, c := math.Sin(theta), math.Cos(theta)
	out := &Particle{ID: p.ID, Points: make([]Point, len(p.Points))}
	for i, pt := range p.Points {
		out.Points[i] = Point{c*pt.X - s*pt.Y, s*pt.X + c*pt.Y}
	}
	return out
}

// crossTerm is the Gaussian-mixture cross correlation between two point
// clouds with isotropic kernels of width sigma: the Bhattacharyya-style
// score of Heydarian et al. Higher is better aligned.
func crossTerm(a, b *Particle, sigma float64) float64 {
	inv := 1 / (4 * sigma * sigma)
	var sum float64
	for _, pa := range a.Points {
		for _, pb := range b.Points {
			dx, dy := pa.X-pb.X, pa.Y-pb.Y
			sum += math.Exp(-(dx*dx + dy*dy) * inv)
		}
	}
	return sum / float64(len(a.Points)*len(b.Points))
}

// gmmL2 is the quadratic L2 distance between the two Gaussian mixture
// models (Jian & Vemuri): ||A||^2 + ||B||^2 - 2<A, B>. Lower is better
// aligned.
func gmmL2(a, b *Particle, sigma float64) float64 {
	return crossTerm(a, a, sigma) + crossTerm(b, b, sigma) - 2*crossTerm(a, b, sigma)
}

// Registration is the outcome of aligning particle B onto particle A.
type Registration struct {
	// Theta is the rotation applied to B (radians, in (-pi, pi]).
	Theta float64
	// Score is the cross-term at the optimum.
	Score float64
	// L2 is the GMM L2 distance at the optimum.
	L2 float64
	// Evals counts score evaluations — the data-dependent cost that makes
	// this workload irregular.
	Evals int
}

// register aligns b to a: both are centered (translation), then the
// rotation maximizing the GMM cross-term is found by a coarse angular scan
// followed by golden-section refinement of every competitive coarse
// candidate. Ambiguous particle pairs produce several competitive
// candidates and therefore cost more evaluations — the data-dependent,
// irregular run time of §5.3.
func register(a, b *Particle, sigma float64, coarseSteps int) Registration {
	if coarseSteps < 4 {
		coarseSteps = 4
	}
	ca, cb := a.centered(), b.centered()
	evals := 0
	score := func(theta float64) float64 {
		evals++
		return crossTerm(ca, cb.rotated(theta), sigma)
	}
	// Coarse scan.
	thetas := make([]float64, coarseSteps)
	scores := make([]float64, coarseSteps)
	bestScore := math.Inf(-1)
	for k := 0; k < coarseSteps; k++ {
		thetas[k] = -math.Pi + 2*math.Pi*float64(k)/float64(coarseSteps)
		scores[k] = score(thetas[k])
		if scores[k] > bestScore {
			bestScore = scores[k]
		}
	}
	// Refine every local maximum whose score is competitive with the best.
	width := 2 * math.Pi / float64(coarseSteps)
	bestTheta, bestRefined := 0.0, math.Inf(-1)
	for k := 0; k < coarseSteps; k++ {
		prev := scores[(k+coarseSteps-1)%coarseSteps]
		next := scores[(k+1)%coarseSteps]
		if scores[k] < prev || scores[k] < next || scores[k] < 0.8*bestScore {
			continue
		}
		theta, s := goldenMax(score, thetas[k]-width, thetas[k]+width, &evals)
		if s > bestRefined {
			bestRefined, bestTheta = s, theta
		}
	}
	return Registration{
		Theta: bestTheta,
		Score: bestRefined,
		L2:    gmmL2(ca, cb.rotated(bestTheta), sigma),
		Evals: evals,
	}
}

// goldenMax runs golden-section search for the maximum of f on [lo, hi].
func goldenMax(f func(float64) float64, lo, hi float64, evals *int) (float64, float64) {
	const phi = 0.6180339887498949
	x1 := hi - phi*(hi-lo)
	x2 := lo + phi*(hi-lo)
	f1, f2 := f(x1), f(x2)
	for hi-lo > 1e-4 && *evals < 10000 {
		if f1 < f2 {
			lo, x1, f1 = x1, x2, f2
			x2 = lo + phi*(hi-lo)
			f2 = f(x2)
		} else {
			hi, x2, f2 = x2, x1, f1
			x1 = hi - phi*(hi-lo)
			f1 = f(x1)
		}
	}
	mid := (lo + hi) / 2
	return mid, f(mid)
}

// Template describes the underlying biological structure imaged by all
// particles: points on a ring plus spokes, a shape with no rotational
// symmetry for unambiguous registration.
type Template struct {
	Ring   int
	Spokes int
	Radius float64
}

// defaultTemplate returns the structure used by the synthetic generator.
func defaultTemplate() Template { return Template{Ring: 40, Spokes: 3, Radius: 50} }

// points materializes the template point set. Spokes sit at irregular
// angles with distinct lengths and the ring is incomplete, so the
// structure has no approximate rotational self-similarity — ambiguous
// registrations would otherwise dominate.
func (t Template) points() []Point {
	var pts []Point
	for i := 0; i < t.Ring; i++ {
		// An incomplete ring (300 degrees) breaks rotational symmetry.
		ang := 2 * math.Pi * 5 / 6 * float64(i) / float64(t.Ring)
		pts = append(pts, Point{t.Radius * math.Cos(ang), t.Radius * math.Sin(ang)})
	}
	spokeAngles := []float64{0, 0.9, 2.3, 3.4, 4.8, 5.6}
	for s := 0; s < t.Spokes; s++ {
		ang := spokeAngles[s%len(spokeAngles)]
		length := 9 - 2*(s%3) // 9, 7, 5 points
		for r := 1; r <= length; r++ {
			d := t.Radius * float64(r) / 10
			pts = append(pts, Point{d * math.Cos(ang), d * math.Sin(ang)})
		}
	}
	return pts
}

// Observe simulates imaging the template: random rotation and translation,
// localization noise, and under-labeling (each point detected with
// probability labelEff, possibly multiple times).
func (t Template) Observe(rng *stats.RNG, id int, noise, labelEff float64) (*Particle, float64) {
	theta := (2*rng.Float64() - 1) * math.Pi
	dx, dy := 20*rng.NormFloat64(), 20*rng.NormFloat64()
	s, c := math.Sin(theta), math.Cos(theta)
	var pts []Point
	for _, p := range t.points() {
		detections := 0
		if rng.Float64() < labelEff {
			detections = 1 + rng.Intn(2)
		}
		for d := 0; d < detections; d++ {
			x := c*p.X - s*p.Y + dx + noise*rng.NormFloat64()
			y := s*p.X + c*p.Y + dy + noise*rng.NormFloat64()
			pts = append(pts, Point{x, y})
		}
	}
	if len(pts) == 0 {
		pts = append(pts, Point{dx, dy})
	}
	return &Particle{ID: id, Points: pts}, theta
}
