package flow

import (
	"math"
	"math/rand"
	"testing"

	"nerve/internal/video"
	"nerve/internal/vmath"
)

func texture(rng *rand.Rand, w, h int) *vmath.Plane {
	p := vmath.NewPlane(w, h)
	for i := range p.Pix {
		p.Pix[i] = rng.Float32() * 255
	}
	return vmath.GaussianBlur(p, 1.2)
}

func shift(p *vmath.Plane, dx, dy int) *vmath.Plane {
	out := vmath.NewPlane(p.W, p.H)
	for y := 0; y < p.H; y++ {
		for x := 0; x < p.W; x++ {
			out.Set(x, y, p.AtClamp(x+dx, y+dy))
		}
	}
	return out
}

func TestEstimateGlobalTranslation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prev := texture(rng, 96, 64)
	// cur(x,y) = prev(x+5, y-3) ⇒ U≈5, V≈-3.
	cur := shift(prev, 5, -3)
	f := Estimate(prev, cur, Options{})
	// Check interior pixels (borders are ambiguous).
	var sumU, sumV float64
	n := 0
	for y := 16; y < 48; y++ {
		for x := 16; x < 80; x++ {
			u, v, _ := f.At(x, y)
			sumU += float64(u)
			sumV += float64(v)
			n++
		}
	}
	if math.Abs(sumU/float64(n)-5) > 1 || math.Abs(sumV/float64(n)+3) > 1 {
		t.Fatalf("mean flow (%v, %v), want ≈(5, -3)", sumU/float64(n), sumV/float64(n))
	}
}

func TestEstimateZeroOnIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := texture(rng, 64, 48)
	f := Estimate(p, p, Options{})
	if m := f.MeanMagnitude(); m > 0.3 {
		t.Fatalf("identical frames produced flow magnitude %v", m)
	}
	// Confidence should be high everywhere.
	var minConf float32 = 1
	for _, c := range f.Conf {
		if c < minConf {
			minConf = c
		}
	}
	if minConf < 0.5 {
		t.Fatalf("low confidence %v on identical frames", minConf)
	}
}

func TestEstimateLargeMotionViaPyramid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	prev := texture(rng, 128, 96)
	cur := shift(prev, 14, 0) // beyond single-level search radius 4
	f := Estimate(prev, cur, Options{Levels: 3, Search: 4})
	var sumU float64
	n := 0
	for y := 24; y < 72; y++ {
		for x := 32; x < 96; x++ {
			u, _, _ := f.At(x, y)
			sumU += float64(u)
			n++
		}
	}
	if got := sumU / float64(n); math.Abs(got-14) > 2.5 {
		t.Fatalf("pyramid failed on large motion: mean U=%v want 14", got)
	}
}

func TestConfidenceLowOnUnmatchedContent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	prev := texture(rng, 64, 64)
	cur := texture(rand.New(rand.NewSource(99)), 64, 64) // unrelated
	f := Estimate(prev, cur, Options{})
	var avg float64
	for _, c := range f.Conf {
		avg += float64(c)
	}
	avg /= float64(len(f.Conf))

	fSame := Estimate(prev, prev, Options{})
	var avgSame float64
	for _, c := range fSame.Conf {
		avgSame += float64(c)
	}
	avgSame /= float64(len(fSame.Conf))
	if avg >= avgSame {
		t.Fatalf("confidence on unrelated content (%v) not below matched (%v)", avg, avgSame)
	}
}

func TestResampleScalesVectors(t *testing.T) {
	f := NewField(4, 4)
	for i := range f.U {
		f.U[i] = 2
		f.V[i] = -1
		f.Conf[i] = 0.5
	}
	g := f.Resample(8, 8)
	if g.W != 8 || g.H != 8 {
		t.Fatal("geometry")
	}
	u, v, c := g.At(4, 4)
	if math.Abs(float64(u)-4) > 1e-4 || math.Abs(float64(v)+2) > 1e-4 {
		t.Fatalf("vectors not scaled: %v %v", u, v)
	}
	if math.Abs(float64(c)-0.5) > 1e-4 {
		t.Fatalf("confidence altered: %v", c)
	}
}

func TestScaleAndExtrapolate(t *testing.T) {
	f := NewField(2, 2)
	f.U[0] = 3
	g := Extrapolate(f, 2)
	if g.U[0] != 6 {
		t.Fatalf("extrapolate: %v", g.U[0])
	}
	if f.U[0] != 3 {
		t.Fatal("Extrapolate mutated input")
	}
	f.Scale(0.5)
	if f.U[0] != 1.5 {
		t.Fatalf("scale: %v", f.U[0])
	}
}

func TestEstimatePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Estimate(vmath.NewPlane(8, 8), vmath.NewPlane(9, 8), Options{})
}

func TestEstimateOnSyntheticVideo(t *testing.T) {
	// Real generator frames: flow between consecutive frames should warp
	// prev close to cur (validated end-to-end in the warp package too).
	g := video.NewGenerator(video.Categories()[3], 7)
	prev := g.Render(40, 160, 96)
	cur := g.Render(41, 160, 96)
	f := Estimate(prev, cur, Options{})
	if f.W != 160 || f.H != 96 {
		t.Fatal("field geometry")
	}
	if m := f.MeanMagnitude(); m > 20 {
		t.Fatalf("implausible flow magnitude %v between consecutive frames", m)
	}
}

func TestTinyFrames(t *testing.T) {
	// Frames smaller than a block must not panic.
	a := vmath.NewPlane(5, 5)
	b := vmath.NewPlane(5, 5)
	f := Estimate(a, b, Options{})
	if f.W != 5 || f.H != 5 {
		t.Fatal("tiny frame geometry")
	}
}

func BenchmarkEstimate128x64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prev := texture(rng, 128, 64)
	cur := shift(prev, 3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Estimate(prev, cur, Options{})
	}
}

// TestRoundFloat32MatchesMathRound checks roundFloat32 against the float64
// math.Round it replaces, bit for bit: halves, values next to halves and
// to the 2²³ integer limit, signed zeros, infinities, NaN and a random
// sweep.
func TestRoundFloat32MatchesMathRound(t *testing.T) {
	vals := []float32{0, float32(math.Copysign(0, -1)), 0.5, -0.5, 1.5, -1.5, 2.5, 0.49999997, -0.49999997,
		0.35, -0.35, 0.65, -0.65, 1 << 23, -(1 << 23), 1<<23 - 0.5, -(1<<23 - 0.5), 1 << 24, 3e38,
		float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), math.SmallestNonzeroFloat32}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200000; i++ {
		vals = append(vals, float32(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-3))))
	}
	for _, v := range vals {
		for _, x := range []float32{v, math.Nextafter32(v, float32(math.Inf(1))), math.Nextafter32(v, float32(math.Inf(-1)))} {
			want := float32(math.Round(float64(x)))
			if got := roundFloat32(x); math.Float32bits(got) != math.Float32bits(want) {
				t.Fatalf("roundFloat32(%v) = %v (%08x), math.Round gives %v (%08x)",
					x, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
	}
}
