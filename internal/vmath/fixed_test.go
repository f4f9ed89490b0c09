package vmath

import (
	"math/rand"
	"testing"

	"nerve/internal/par"
)

// fixedTestPlanes builds the oracle sweep corpus: random noise,
// checkerboards at two frequencies, impulses, flat extremes and gradients
// — the corner cases where rounding and lane packing go wrong.
func fixedTestPlanes(w, h int, seed int64) []*BytePlane {
	rng := rand.New(rand.NewSource(seed))
	var out []*BytePlane
	random := NewBytePlane(w, h)
	for i := range random.Pix {
		random.Pix[i] = uint8(rng.Intn(256))
	}
	out = append(out, random)
	for _, period := range []int{1, 4} {
		cb := NewBytePlane(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				if (x/period+y/period)%2 == 0 {
					cb.Pix[y*w+x] = 255
				}
			}
		}
		out = append(out, cb)
	}
	imp := NewBytePlane(w, h)
	imp.Pix[(h/2)*w+w/2] = 255
	imp.Pix[0] = 255
	imp.Pix[len(imp.Pix)-1] = 255
	out = append(out, imp)
	for _, v := range []uint8{0, 255, 128} {
		flat := NewBytePlane(w, h)
		for i := range flat.Pix {
			flat.Pix[i] = v
		}
		out = append(out, flat)
	}
	grad := NewBytePlane(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			grad.Pix[y*w+x] = uint8((x*255/max(w-1, 1) + y) % 256)
		}
	}
	out = append(out, grad)
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// toFloat converts a byte plane to its float shadow.
func toFloat(p *BytePlane) *Plane {
	f := NewPlane(p.W, p.H)
	for i, v := range p.Pix {
		f.Pix[i] = float32(v)
	}
	return f
}

// maxAbsDiffBytes returns the largest |a−b| over the two byte planes.
func maxAbsDiffBytes(t *testing.T, a *BytePlane, b *BytePlane) int {
	t.Helper()
	if a.W != b.W || a.H != b.H {
		t.Fatalf("size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	var worst int
	for i := range a.Pix {
		d := int(a.Pix[i]) - int(b.Pix[i])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}

var resizeGeometries = []struct{ sw, sh, dw, dh int }{
	{64, 36, 128, 72},    // exact 2× up
	{64, 36, 160, 90},    // 2.5× up
	{160, 90, 64, 36},    // downscale
	{61, 37, 113, 71},    // odd primes both ways
	{113, 71, 61, 37},    //
	{64, 36, 64, 36},     // identity geometry
	{960, 540, 480, 270}, // the recovery work-res path
}

// TestResizeNearestBytesBitExact: the byte nearest-neighbour kernel must be
// bit-exact with the float one — same index math, bytes round-trip
// untouched.
func TestResizeNearestBytesBitExact(t *testing.T) {
	for _, g := range resizeGeometries {
		for pi, src := range fixedTestPlanes(g.sw, g.sh, 1) {
			got := ResizeNearestBytesInto(NewBytePlane(g.dw, g.dh), src)
			ref := ResizeNearestInto(NewPlane(g.dw, g.dh), toFloat(src))
			refB := NewBytePlane(g.dw, g.dh).FromPlane(ref)
			if d := maxAbsDiffBytes(t, got, refB); d != 0 {
				t.Errorf("geometry %v plane %d: nearest bytes differs from float by %d", g, pi, d)
			}
		}
	}
}

// TestResizeBilinearBytesWithinOneLSB: the Q15 SWAR bilinear resize must
// stay within 1 LSB of the rounded float reference on every corpus plane
// and geometry.
func TestResizeBilinearBytesWithinOneLSB(t *testing.T) {
	for _, g := range resizeGeometries {
		for pi, src := range fixedTestPlanes(g.sw, g.sh, 2) {
			got := ResizeBilinearBytesInto(NewBytePlane(g.dw, g.dh), src)
			ref := ResizeBilinearInto(NewPlane(g.dw, g.dh), toFloat(src))
			refB := NewBytePlane(g.dw, g.dh).FromPlane(ref)
			if d := maxAbsDiffBytes(t, got, refB); d > 1 {
				t.Errorf("geometry %v plane %d: bilinear bytes off by %d LSB (want ≤1)", g, pi, d)
			}
		}
	}
}

// TestResizeBilinearToBytesMatchesShadow: resampling a float plane
// straight to bytes must equal rounding it to a byte shadow first and
// resampling that, on every geometry and for pixels outside [0, 255].
func TestResizeBilinearToBytesMatchesShadow(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, g := range append(resizeGeometries, struct{ sw, sh, dw, dh int }{960, 540, 240, 135}) {
		src := NewPlane(g.sw, g.sh)
		for i := range src.Pix {
			src.Pix[i] = rng.Float32()*300 - 20
		}
		src.Pix[0] = 254.5
		want := ResizeBilinearBytesInto(NewBytePlane(g.dw, g.dh), NewBytePlane(g.sw, g.sh).FromPlane(src))
		got := ResizeBilinearToBytesInto(NewBytePlane(g.dw, g.dh), src)
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("geometry %v: pixel %d = %d, shadow path %d", g, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

// TestResizeBilinearBytesFlatExact: on a flat plane every lerp is exact, so
// the fixed-point path must reproduce the constant bit-exactly (the
// "bit-exact where the contract allows" half of the bound).
func TestResizeBilinearBytesFlatExact(t *testing.T) {
	src := NewBytePlane(50, 30)
	for i := range src.Pix {
		src.Pix[i] = 137
	}
	got := ResizeBilinearBytesInto(NewBytePlane(173, 99), src)
	for i, v := range got.Pix {
		if v != 137 {
			t.Fatalf("pixel %d: flat resize produced %d, want 137", i, v)
		}
	}
}

// TestFixedTapsSumPreserving: FixedTaps must make a normalised kernel sum
// to exactly 1<<shift so DC gain is exact.
func TestFixedTapsSumPreserving(t *testing.T) {
	for _, sigma := range []float64{0.6, 1.0, 1.8} {
		taps := GaussianKernel1D(sigma)
		for _, shift := range []uint{8, 12, 14} {
			q := FixedTaps(taps, shift)
			var sum int64
			for _, v := range q {
				sum += int64(v)
			}
			if sum != 1<<shift {
				t.Errorf("sigma %v shift %d: tap sum %d != %d", sigma, shift, sum, 1<<shift)
			}
		}
	}
}

// TestConvolveSeparableBytesWithinOneLSB sweeps Gaussian kernels over the
// corpus and checks the Q12 fixed path against the float separable
// convolution (clamped and rounded).
func TestConvolveSeparableBytesWithinOneLSB(t *testing.T) {
	const w, h = 73, 41
	for _, sigma := range []float64{0.6, 1.0, 1.8} {
		taps := GaussianKernel1D(sigma)
		q := FixedTaps(taps, 12)
		for pi, src := range fixedTestPlanes(w, h, 3) {
			got := ConvolveSeparableBytesInto(NewBytePlane(w, h), src, q, q, 12)
			ref := ConvolveSeparableInto(NewPlane(w, h), toFloat(src), taps, taps)
			refB := NewBytePlane(w, h).FromPlane(ref.Clamp255())
			if d := maxAbsDiffBytes(t, got, refB); d > 1 {
				t.Errorf("sigma %v plane %d: conv bytes off by %d LSB (want ≤1)", sigma, pi, d)
			}
		}
	}
}

// TestConvolveSeparableBytesFlatExact: with sum-preserving taps a flat
// plane must pass through bit-exactly.
func TestConvolveSeparableBytesFlatExact(t *testing.T) {
	const w, h = 40, 25
	src := NewBytePlane(w, h)
	for i := range src.Pix {
		src.Pix[i] = 201
	}
	q := FixedTaps(GaussianKernel1D(1.0), 12)
	got := ConvolveSeparableBytesInto(NewBytePlane(w, h), src, q, q, 12)
	for i, v := range got.Pix {
		if v != 201 {
			t.Fatalf("pixel %d: flat conv produced %d, want 201", i, v)
		}
	}
}

// TestConvolveSeparableBytesSignedTaps exercises the scalar vertical path
// (negative taps disable SWAR) with a difference-of-impulses kernel and
// checks it against the float reference.
func TestConvolveSeparableBytesSignedTaps(t *testing.T) {
	const w, h = 37, 29
	// A light sharpening kernel: centre 1.5, sides −0.25 (sum 1).
	ft := []float32{-0.25, 1.5, -0.25}
	q := FixedTaps(ft, 12)
	for pi, src := range fixedTestPlanes(w, h, 4) {
		got := ConvolveSeparableBytesInto(NewBytePlane(w, h), src, q, q, 12)
		ref := ConvolveSeparableInto(NewPlane(w, h), toFloat(src), ft, ft)
		refB := NewBytePlane(w, h).FromPlane(ref.Clamp255())
		if d := maxAbsDiffBytes(t, got, refB); d > 1 {
			t.Errorf("plane %d: signed-tap conv off by %d LSB (want ≤1)", pi, d)
		}
	}
}

// TestConvolveSeparableBytesAliasing: dst aliasing src must match the
// non-aliased result (the intermediate fully consumes src first).
func TestConvolveSeparableBytesAliasing(t *testing.T) {
	const w, h = 31, 22
	src := fixedTestPlanes(w, h, 5)[0]
	q := FixedTaps(GaussianKernel1D(1.0), 12)
	want := ConvolveSeparableBytesInto(NewBytePlane(w, h), src, q, q, 12)
	inPlace := NewBytePlane(w, h)
	copy(inPlace.Pix, src.Pix)
	ConvolveSeparableBytesInto(inPlace, inPlace, q, q, 12)
	if d := maxAbsDiffBytes(t, inPlace, want); d != 0 {
		t.Fatalf("aliased conv differs from non-aliased by %d", d)
	}
}

// TestSharpenBytesWithinOneLSB checks the integer binomial unsharp mask
// against the float composite (binomial blur + unsharp combine + clamp).
func TestSharpenBytesWithinOneLSB(t *testing.T) {
	const w, h = 67, 43
	binomial := []float32{0.25, 0.5, 0.25}
	for _, a256 := range []int32{32, 64, 96} {
		amount := float32(a256) / 256
		for pi, src := range fixedTestPlanes(w, h, 6) {
			got := SharpenBytesInto(NewBytePlane(w, h), src, a256)
			f := toFloat(src)
			blur := ConvolveSeparableInto(NewPlane(w, h), f, binomial, binomial)
			ref := NewPlane(w, h)
			for i := range ref.Pix {
				ref.Pix[i] = f.Pix[i] + amount*(f.Pix[i]-blur.Pix[i])
			}
			refB := NewBytePlane(w, h).FromPlane(ref.Clamp255())
			if d := maxAbsDiffBytes(t, got, refB); d > 1 {
				t.Errorf("a256=%d plane %d: sharpen off by %d LSB (want ≤1)", a256, pi, d)
			}
		}
	}
}

// TestSharpenBytesZeroAmountCopies: a256 ≤ 0 must copy src bit-exactly.
func TestSharpenBytesZeroAmountCopies(t *testing.T) {
	src := fixedTestPlanes(21, 17, 7)[0]
	got := SharpenBytesInto(NewBytePlane(21, 17), src, 0)
	if d := maxAbsDiffBytes(t, got, src); d != 0 {
		t.Fatalf("zero-amount sharpen modified pixels (max diff %d)", d)
	}
}

// TestSAD8MatchesScalar cross-checks the SWAR byte SAD against a scalar
// loop over random words.
func TestSAD8MatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 2000; trial++ {
		var xb, yb [8]byte
		for i := range xb {
			xb[i] = uint8(rng.Intn(256))
			yb[i] = uint8(rng.Intn(256))
		}
		var x, y uint64
		var want uint64
		for i := 0; i < 8; i++ {
			x |= uint64(xb[i]) << (8 * i)
			y |= uint64(yb[i]) << (8 * i)
			d := int(xb[i]) - int(yb[i])
			if d < 0 {
				d = -d
			}
			want += uint64(d)
		}
		if got := SAD8(x, y); got != want {
			t.Fatalf("trial %d: SAD8 = %d, want %d", trial, got, want)
		}
	}
}

// TestToPlaneRoundTrip: FromPlane∘ToPlane must be the identity on byte
// planes.
func TestToPlaneRoundTrip(t *testing.T) {
	src := fixedTestPlanes(19, 13, 9)[0]
	f := src.ToPlane(NewPlane(19, 13))
	back := NewBytePlane(19, 13).FromPlane(f)
	if d := maxAbsDiffBytes(t, back, src); d != 0 {
		t.Fatalf("round trip changed pixels (max diff %d)", d)
	}
}

// TestResizeBytesPoolSizeIndependent: the fixed kernels must stay
// bit-identical across pool sizes like every other kernel (ForRows bands
// are pool-size independent).
func TestResizeBytesPoolSizeIndependent(t *testing.T) {
	src := fixedTestPlanes(160, 90, 10)[0]
	run := func(workers int) (*BytePlane, *BytePlane) {
		defer par.SetWorkers(workers)()
		r := ResizeBilinearBytesInto(NewBytePlane(321, 181), src)
		q := FixedTaps(GaussianKernel1D(1.0), 12)
		c := ConvolveSeparableBytesInto(NewBytePlane(160, 90), src, q, q, 12)
		return r, c
	}
	r1, c1 := run(1)
	r4, c4 := run(4)
	if d := maxAbsDiffBytes(t, r1, r4); d != 0 {
		t.Errorf("resize differs across pool sizes by %d", d)
	}
	if d := maxAbsDiffBytes(t, c1, c4); d != 0 {
		t.Errorf("conv differs across pool sizes by %d", d)
	}
}

func BenchmarkResizeBilinearBytes1080p(b *testing.B) {
	src := NewBytePlane(960, 540)
	rng := rand.New(rand.NewSource(11))
	for i := range src.Pix {
		src.Pix[i] = uint8(rng.Intn(256))
	}
	dst := NewBytePlane(1920, 1080)
	b.SetBytes(int64(len(dst.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResizeBilinearBytesInto(dst, src)
	}
}

func BenchmarkSharpenBytes540p(b *testing.B) {
	src := NewBytePlane(960, 540)
	rng := rand.New(rand.NewSource(12))
	for i := range src.Pix {
		src.Pix[i] = uint8(rng.Intn(256))
	}
	dst := NewBytePlane(960, 540)
	b.SetBytes(int64(len(src.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SharpenBytesInto(dst, src, 64)
	}
}

func BenchmarkConvolveSeparableBytes540p(b *testing.B) {
	src := NewBytePlane(960, 540)
	rng := rand.New(rand.NewSource(13))
	for i := range src.Pix {
		src.Pix[i] = uint8(rng.Intn(256))
	}
	q := FixedTaps(GaussianKernel1D(1.0), 12)
	dst := NewBytePlane(960, 540)
	b.SetBytes(int64(len(src.Pix)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ConvolveSeparableBytesInto(dst, src, q, q, 12)
	}
}
