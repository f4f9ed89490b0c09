package vmath

import (
	"math"
	"math/rand"
	"testing"
)

func TestConvolveIdentityKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	p := randomPlane(rng, 7, 6)
	id := []float32{0, 0, 0, 0, 1, 0, 0, 0, 0}
	q := Convolve(p, id, 3)
	if d := MAE(p, q); d != 0 {
		t.Fatalf("identity convolution error %v", d)
	}
}

func TestConvolveSeparableMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := randomPlane(rng, 12, 9)
	kx := []float32{0.25, 0.5, 0.25}
	ky := []float32{0.25, 0.5, 0.25}
	full := make([]float32, 9)
	for j := 0; j < 3; j++ {
		for i := 0; i < 3; i++ {
			full[j*3+i] = kx[i] * ky[j]
		}
	}
	a := ConvolveSeparable(p, kx, ky)
	b := Convolve(p, full, 3)
	if d := MAE(a, b); d > 1e-4 {
		t.Fatalf("separable vs full mismatch %v", d)
	}
}

func TestGaussianKernelNormalised(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5} {
		taps := GaussianKernel1D(sigma)
		if len(taps)%2 == 0 {
			t.Fatalf("even tap count for sigma %v", sigma)
		}
		var sum float64
		for _, v := range taps {
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("sigma %v taps sum to %v", sigma, sum)
		}
		// Symmetry.
		for i := range taps {
			if taps[i] != taps[len(taps)-1-i] {
				t.Fatalf("sigma %v taps not symmetric", sigma)
			}
		}
	}
	if taps := GaussianKernel1D(0); len(taps) != 1 || taps[0] != 1 {
		t.Fatal("sigma<=0 must return identity")
	}
}

func TestGaussianBlurPreservesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	p := randomPlane(rng, 20, 20)
	q := GaussianBlur(p, 1.2)
	// Replicate padding slightly biases the mean; tolerance is loose.
	if d := math.Abs(p.Mean() - q.Mean()); d > 2 {
		t.Fatalf("blur shifted mean by %v", d)
	}
	// Blur reduces variance.
	varOf := func(pl *Plane) float64 {
		m := pl.Mean()
		var s float64
		for _, v := range pl.Pix {
			d := float64(v) - m
			s += d * d
		}
		return s / float64(len(pl.Pix))
	}
	if varOf(q) >= varOf(p) {
		t.Fatal("blur did not reduce variance")
	}
}

func TestSobelOnRamp(t *testing.T) {
	// Horizontal ramp: SobelX ≈ 8·slope in the interior, SobelY ≈ 0.
	p := NewPlane(8, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			p.Set(x, y, float32(3*x))
		}
	}
	gx := SobelX(p)
	gy := SobelY(p)
	for y := 1; y < 7; y++ {
		for x := 1; x < 7; x++ {
			if math.Abs(float64(gx.At(x, y))-24) > 1e-3 {
				t.Fatalf("SobelX at %d,%d = %v", x, y, gx.At(x, y))
			}
			if math.Abs(float64(gy.At(x, y))) > 1e-3 {
				t.Fatalf("SobelY at %d,%d = %v", x, y, gy.At(x, y))
			}
		}
	}
}

func TestGradientMagnitudeNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := GradientMagnitude(randomPlane(rng, 10, 10))
	min, _ := g.MinMax()
	if min < 0 {
		t.Fatalf("negative gradient magnitude %v", min)
	}
}

func TestLaplacianZeroOnConstant(t *testing.T) {
	p := constantPlane(6, 6, 42)
	l := Laplacian(p)
	min, max := l.MinMax()
	if min != 0 || max != 0 {
		t.Fatalf("Laplacian of constant non-zero: %v %v", min, max)
	}
}

func TestUnsharpMaskSharpensEdge(t *testing.T) {
	p := NewPlane(16, 16)
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			p.Set(x, y, 200)
		}
	}
	blurred := GaussianBlur(p, 1.5)
	sharp := UnsharpMask(blurred, 1.5, 1.0)
	_, gBlur := GradientMagnitude(blurred).MinMax()
	_, gSharp := GradientMagnitude(sharp).MinMax()
	if gSharp <= gBlur {
		t.Fatalf("unsharp mask did not increase max gradient: %v <= %v", gSharp, gBlur)
	}
}

func TestBoxBlurRadiusZeroIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	p := randomPlane(rng, 5, 5)
	q := BoxBlur(p, 0)
	if d := MAE(p, q); d != 0 {
		t.Fatal("BoxBlur(0) must copy")
	}
	q.Set(0, 0, -1)
	if p.At(0, 0) == -1 {
		t.Fatal("BoxBlur(0) must not alias")
	}
}

func BenchmarkGaussianBlur(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomPlane(rng, 480, 270)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GaussianBlur(p, 1.0)
	}
}

func BenchmarkResizeBilinear(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomPlane(rng, 480, 270)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResizeBilinear(p, 1920, 1080)
	}
}

// convolveSeparableRef is the per-tap AtClamp formulation of
// ConvolveSeparableInto, kept as the reference its clamp-free interior
// loops must match bit for bit.
func convolveSeparableRef(p *Plane, kx, ky []float32) *Plane {
	tmp := NewPlane(p.W, p.H)
	rx := len(kx) / 2
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			var s float32
			for i, w := range kx {
				s += w * p.AtClamp(x+i-rx, y)
			}
			tmp.Pix[y*p.W+x] = s
		}
	}
	dst := NewPlane(p.W, p.H)
	ry := len(ky) / 2
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			var s float32
			for j, w := range ky {
				s += w * tmp.AtClamp(x, y+j-ry)
			}
			dst.Pix[y*p.W+x] = s
		}
	}
	return dst
}

// checkConvolveSeparable compares ConvolveSeparableInto, into a fresh
// plane and in place, against the reference bit for bit.
func checkConvolveSeparable(t *testing.T, p *Plane, kx, ky []float32) {
	t.Helper()
	want := convolveSeparableRef(p, kx, ky)
	got := ConvolveSeparable(p, kx, ky)
	inPlace := ConvolveSeparableInto(p.Clone(), p.Clone(), kx, ky)
	for i := range want.Pix {
		wb := math.Float32bits(want.Pix[i])
		if gb := math.Float32bits(got.Pix[i]); gb != wb {
			t.Fatalf("%dx%d kx=%d ky=%d: pixel (%d,%d) bits %08x, reference %08x",
				p.W, p.H, len(kx), len(ky), i%p.W, i/p.W, gb, wb)
		}
		if gb := math.Float32bits(inPlace.Pix[i]); gb != wb {
			t.Fatalf("%dx%d kx=%d ky=%d in place: pixel (%d,%d) bits %08x, reference %08x",
				p.W, p.H, len(kx), len(ky), i%p.W, i/p.W, gb, wb)
		}
	}
}

// fuzzTaps draws an odd tap vector of length 1..9 with signed weights.
func fuzzTaps(rng *rand.Rand, n uint8) []float32 {
	k := make([]float32, 2*int(n%5)+1)
	for i := range k {
		k[i] = float32(rng.NormFloat64())
	}
	return k
}

// TestConvolveSeparableMatchesReference covers every plane size in 1..12
// (planes narrower and shorter than the kernel included) for every odd
// tap length 1..9, plus the Gaussian taps the pipeline blurs with.
func TestConvolveSeparableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for w := 1; w <= 12; w++ {
		for h := 1; h <= 12; h++ {
			p := randomPlane(rng, w, h)
			for n := uint8(0); n < 5; n++ {
				checkConvolveSeparable(t, p, fuzzTaps(rng, n), fuzzTaps(rng, 4-n))
			}
		}
	}
	p := randomPlane(rng, 131, 67)
	for _, sigma := range []float64{0.8, 1, 2.5} {
		taps := GaussianKernel1D(sigma)
		checkConvolveSeparable(t, p, taps, taps)
	}
}

func FuzzConvolveSeparable(f *testing.F) {
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), int64(1))
	f.Add(uint8(3), uint8(2), uint8(4), uint8(4), int64(2))
	f.Add(uint8(40), uint8(40), uint8(3), uint8(1), int64(3))
	f.Add(uint8(9), uint8(17), uint8(2), uint8(4), int64(4))
	f.Fuzz(func(t *testing.T, w, h, nx, ny uint8, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randomPlane(rng, 1+int(w)%40, 1+int(h)%40)
		checkConvolveSeparable(t, p, fuzzTaps(rng, nx), fuzzTaps(rng, ny))
	})
}
