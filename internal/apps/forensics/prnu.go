package forensics

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"rocket/internal/stats"
)

// Image is a grayscale image. The paper's application decodes JPEG with
// libjpeg; this reproduction uses a simple deflate-compressed container so
// the whole pipeline stays pure Go while still exercising real decode
// work.
type Image struct {
	W, H int
	Pix  []uint8
}

const imageMagic = "PRNU1\n"

// encode serializes the image into the container format.
func encode(img *Image) ([]byte, error) {
	if len(img.Pix) != img.W*img.H {
		return nil, fmt.Errorf("forensics: pixel buffer %d != %dx%d", len(img.Pix), img.W, img.H)
	}
	var buf bytes.Buffer
	buf.WriteString(imageMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(img.W))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(img.H))
	buf.Write(hdr[:])
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(img.Pix); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decode parses a container produced by encode.
func decode(raw []byte) (*Image, error) {
	if len(raw) < len(imageMagic)+8 || string(raw[:len(imageMagic)]) != imageMagic {
		return nil, fmt.Errorf("forensics: bad image header")
	}
	rest := raw[len(imageMagic):]
	w := int(binary.LittleEndian.Uint32(rest[0:4]))
	h := int(binary.LittleEndian.Uint32(rest[4:8]))
	if w <= 0 || h <= 0 || w*h > 1<<28 {
		return nil, fmt.Errorf("forensics: implausible dimensions %dx%d", w, h)
	}
	zr := flate.NewReader(bytes.NewReader(rest[8:]))
	defer zr.Close()
	pix := make([]uint8, w*h)
	if _, err := io.ReadFull(zr, pix); err != nil {
		return nil, fmt.Errorf("forensics: decompress: %w", err)
	}
	return &Image{W: w, H: h, Pix: pix}, nil
}

// Camera is a simulated imaging sensor with a fixed multiplicative PRNU
// pattern (§5.1: small deficiencies in sensor responsivity).
type Camera struct {
	W, H int
	// K is the PRNU pattern, one multiplicative factor deviation per
	// pixel (typically a few percent).
	K []float32
}

// newCamera creates a camera whose PRNU pattern is drawn from the given
// seed. Strength is the pattern's standard deviation (e.g. 0.05).
func newCamera(w, h int, strength float64, seed uint64) *Camera {
	rng := stats.NewRNG(seed)
	k := make([]float32, w*h)
	for i := range k {
		k[i] = float32(strength * rng.NormFloat64())
	}
	return &Camera{W: w, H: h, K: k}
}

// shoot produces an image of a random smooth scene as captured by this
// camera: scene luminance modulated by (1 + K) plus shot noise.
func (c *Camera) shoot(rng *stats.RNG) *Image {
	scene := smoothScene(c.W, c.H, rng)
	pix := make([]uint8, c.W*c.H)
	for i, s := range scene {
		v := s*(1+float64(c.K[i])) + 2*rng.NormFloat64()
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		pix[i] = uint8(v + 0.5)
	}
	return &Image{W: c.W, H: c.H, Pix: pix}
}

// smoothScene builds a low-frequency luminance field: a sum of a handful
// of smooth 2D cosine waves over a bright base level, so that the PRNU
// signal (proportional to luminance) is well exercised.
func smoothScene(w, h int, rng *stats.RNG) []float64 {
	type wave struct{ ax, ay, phase, amp float64 }
	waves := make([]wave, 4)
	for i := range waves {
		waves[i] = wave{
			ax:    rng.Float64() * 4 * math.Pi / float64(w),
			ay:    rng.Float64() * 4 * math.Pi / float64(h),
			phase: rng.Float64() * 2 * math.Pi,
			amp:   10 + 20*rng.Float64(),
		}
	}
	scene := make([]float64, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 160.0
			for _, wv := range waves {
				v += wv.amp * math.Cos(wv.ax*float64(x)+wv.ay*float64(y)+wv.phase)
			}
			scene[y*w+x] = v
		}
	}
	return scene
}

// extractPattern computes the noise residual W = I - denoise(I), the PRNU
// estimate that the paper's GPU kernel produces. The denoise filter is a
// 3x3 mean filter; the residual is returned zero-meaned.
func extractPattern(img *Image) []float32 {
	w, h := img.W, img.H
	out := make([]float32, w*h)
	var mean float64
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var sum, cnt float64
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					nx, ny := x+dx, y+dy
					if nx < 0 || ny < 0 || nx >= w || ny >= h {
						continue
					}
					sum += float64(img.Pix[ny*w+nx])
					cnt++
				}
			}
			r := float64(img.Pix[y*w+x]) - sum/cnt
			out[y*w+x] = float32(r)
			mean += r
		}
	}
	mean /= float64(len(out))
	for i := range out {
		out[i] -= float32(mean)
	}
	return out
}

// ncc computes the Normalized Cross Correlation between two equally sized
// patterns, the paper's similarity metric for PRNU patterns.
func ncc(a, b []float32) (float64, error) {
	if len(a) != len(b) || len(a) == 0 {
		return 0, fmt.Errorf("forensics: NCC on patterns of size %d and %d", len(a), len(b))
	}
	var ma, mb float64
	for i := range a {
		ma += float64(a[i])
		mb += float64(b[i])
	}
	n := float64(len(a))
	ma /= n
	mb /= n
	var dot, na, nb float64
	for i := range a {
		da, db := float64(a[i])-ma, float64(b[i])-mb
		dot += da * db
		na += da * da
		nb += db * db
	}
	if na == 0 || nb == 0 {
		return 0, nil
	}
	return dot / math.Sqrt(na*nb), nil
}
