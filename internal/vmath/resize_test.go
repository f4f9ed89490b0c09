package vmath

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func constantPlane(w, h int, v float32) *Plane {
	p := NewPlane(w, h)
	p.Fill(v)
	return p
}

func TestResizeIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := randomPlane(rng, 9, 7)
	for name, f := range map[string]func(*Plane, int, int) *Plane{
		"nearest":  ResizeNearest,
		"bilinear": ResizeBilinear,
		"bicubic":  ResizeBicubic,
	} {
		q := f(p, p.W, p.H)
		if d := MAE(p, q); d > 1e-3 {
			t.Errorf("%s identity resize error %v", name, d)
		}
	}
}

func TestResizePreservesConstant(t *testing.T) {
	p := constantPlane(8, 8, 123)
	for name, f := range map[string]func(*Plane, int, int) *Plane{
		"nearest":  ResizeNearest,
		"bilinear": ResizeBilinear,
		"bicubic":  ResizeBicubic,
	} {
		q := f(p, 17, 5)
		min, max := q.MinMax()
		if math.Abs(float64(min)-123) > 1e-3 || math.Abs(float64(max)-123) > 1e-3 {
			t.Errorf("%s does not preserve constants: min=%v max=%v", name, min, max)
		}
	}
}

func TestResizeDimensions(t *testing.T) {
	p := NewPlane(12, 8)
	q := ResizeBilinear(p, 30, 14)
	if q.W != 30 || q.H != 14 {
		t.Fatalf("got %dx%d", q.W, q.H)
	}
}

func TestDownsampleBoxAverage(t *testing.T) {
	p := FromSlice(4, 2, []float32{
		0, 2, 4, 6,
		2, 4, 6, 8,
	})
	q := Downsample(p, 2, 2)
	if q.W != 2 || q.H != 1 {
		t.Fatalf("shape %dx%d", q.W, q.H)
	}
	if q.Pix[0] != 2 || q.Pix[1] != 6 {
		t.Fatalf("values %v", q.Pix)
	}
}

func TestDownsamplePanicsOnBadFactor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Downsample(NewPlane(4, 4), 0, 1)
}

func TestPixelShuffleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := randomPlane(rng, 8, 6)
	chans := PixelUnshuffle(p, 2)
	if len(chans) != 4 {
		t.Fatalf("got %d channels", len(chans))
	}
	back := PixelShuffle(chans, 2)
	if d := MAE(p, back); d != 0 {
		t.Fatalf("round trip error %v", d)
	}
}

func TestPixelShufflePanicsOnChannelCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	PixelShuffle([]*Plane{NewPlane(2, 2)}, 2)
}

func TestBicubicSharpnessVsBilinear(t *testing.T) {
	// A step edge upsampled bicubically should stay at least as sharp as
	// bilinear (higher max gradient).
	p := NewPlane(16, 16)
	for y := 0; y < 16; y++ {
		for x := 8; x < 16; x++ {
			p.Set(x, y, 255)
		}
	}
	bl := ResizeBilinear(p, 64, 64)
	bc := ResizeBicubic(p, 64, 64)
	_, gb := GradientMagnitude(bl).MinMax()
	_, gc := GradientMagnitude(bc).MinMax()
	if gc < gb {
		t.Fatalf("bicubic max gradient %v < bilinear %v", gc, gb)
	}
}

// Property: resizing never inflates the value range beyond a small
// overshoot for bilinear (none) and bounded overshoot for bicubic.
func TestResizePropertyRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomPlane(rng, 10, 10)
		lo, hi := p.MinMax()
		q := ResizeBilinear(p, 23, 17)
		qlo, qhi := q.MinMax()
		return qlo >= lo-1e-3 && qhi <= hi+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResizeEmpty(t *testing.T) {
	p := NewPlane(0, 0)
	q := ResizeBilinear(p, 0, 0)
	if q.W != 0 || q.H != 0 {
		t.Fatal("empty resize should stay empty")
	}
}

// TestResizeBilinearMatchesSampleBilinear: ResizeBilinearInto, on its
// single-pass (downscale) and row-reusing (upscale) paths alike, must
// equal per-pixel SampleBilinear at the pixel-centre positions bit for
// bit.
func TestResizeBilinearMatchesSampleBilinear(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, g := range [][4]int{
		{128, 64, 480, 270}, {240, 135, 480, 270}, {960, 540, 480, 270},
		{7, 5, 3, 11}, {3, 11, 7, 5}, {1, 1, 5, 4}, {5, 4, 1, 1}, {13, 9, 13, 9},
	} {
		p := randomPlane(rng, g[0], g[1])
		got := ResizeBilinear(p, g[2], g[3])
		sx := float64(g[0]) / float64(g[2])
		sy := float64(g[1]) / float64(g[3])
		for y := 0; y < g[3]; y++ {
			fy := float32((float64(y)+0.5)*sy - 0.5)
			for x := 0; x < g[2]; x++ {
				want := p.SampleBilinear(float32((float64(x)+0.5)*sx-0.5), fy)
				if v := got.At(x, y); math.Float32bits(v) != math.Float32bits(want) {
					t.Fatalf("%v: pixel (%d,%d) = %v, SampleBilinear %v", g, x, y, v, want)
				}
			}
		}
	}
}
