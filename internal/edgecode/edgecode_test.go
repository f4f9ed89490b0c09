package edgecode

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"nerve/internal/video"
	"nerve/internal/vmath"
)

func TestCodeBitOps(t *testing.T) {
	c := NewCode(16, 8)
	if c.Ones() != 0 {
		t.Fatal("new code not empty")
	}
	c.Set(3, 2, true)
	c.Set(15, 7, true)
	if !c.Get(3, 2) || !c.Get(15, 7) || c.Get(0, 0) {
		t.Fatal("bit get/set wrong")
	}
	if c.Ones() != 2 {
		t.Fatalf("Ones=%d", c.Ones())
	}
	c.Set(3, 2, false)
	if c.Get(3, 2) || c.Ones() != 1 {
		t.Fatal("clear failed")
	}
}

func TestDefaultCodeIsOneKB(t *testing.T) {
	c := NewCode(DefaultW, DefaultH)
	if c.SizeBytes() != 1024 {
		t.Fatalf("default code is %d bytes, want 1024 (the paper's 1 KB)", c.SizeBytes())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := NewCode(32, 16)
	c.Set(1, 1, true)
	c.Set(31, 15, true)
	b, err := c.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Code
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	if d.W != 32 || d.H != 16 || !d.Get(1, 1) || !d.Get(31, 15) || d.Ones() != 2 {
		t.Fatal("round trip lost data")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var c Code
	if err := c.UnmarshalBinary([]byte{1, 2}); err == nil {
		t.Fatal("short header accepted")
	}
	if err := c.UnmarshalBinary([]byte{0, 32, 0, 16, 0}); err == nil {
		t.Fatal("short payload accepted")
	}
}

func TestExtractDensity(t *testing.T) {
	g := video.NewGenerator(video.Categories()[0], 3)
	e := NewExtractor(0, 0)
	code := e.Extract(g.Render(10, 320, 180))
	d := code.Density()
	if d < 0.05 || d > 0.3 {
		t.Fatalf("density %v outside target band", d)
	}
	if code.W != DefaultW || code.H != DefaultH {
		t.Fatalf("default geometry %dx%d", code.W, code.H)
	}
}

func TestExtractTracksEdges(t *testing.T) {
	// A frame with a single bright square: code bits should concentrate
	// near the square's contour.
	frame := vmath.NewPlane(256, 128)
	for y := 40; y < 90; y++ {
		for x := 80; x < 180; x++ {
			frame.Set(x, y, 220)
		}
	}
	e := NewExtractor(128, 64)
	e.HistoryWeight = 0
	code := e.Extract(frame)
	// Count set bits near the contour (scaled by 1/2) vs far away.
	near, far := 0, 0
	for y := 0; y < 64; y++ {
		for x := 0; x < 128; x++ {
			if !code.Get(x, y) {
				continue
			}
			onEdgeX := (abs(x-40) <= 3 || abs(x-90) <= 3) && y >= 17 && y <= 48
			onEdgeY := (abs(y-20) <= 3 || abs(y-45) <= 3) && x >= 37 && x <= 93
			if onEdgeX || onEdgeY {
				near++
			} else {
				far++
			}
		}
	}
	if near < 2*far {
		t.Fatalf("edges not localised: near=%d far=%d", near, far)
	}
}

func abs(a int) int {
	if a < 0 {
		return -a
	}
	return a
}

func TestConsecutiveCodesSimilar(t *testing.T) {
	// Temporal coherence: consecutive frames give much closer codes than
	// distant frames (motion information is in the delta).
	g := video.NewGenerator(video.Categories()[2], 5)
	e := NewExtractor(0, 0)
	c0 := e.Extract(g.Render(30, 320, 180))
	c1 := e.Extract(g.Render(31, 320, 180))
	e2 := NewExtractor(0, 0)
	cFar := e2.Extract(g.Render(120, 320, 180))
	dNear, err := Hamming(c0, c1)
	if err != nil {
		t.Fatal(err)
	}
	dFar, err := Hamming(c0, cFar)
	if err != nil {
		t.Fatal(err)
	}
	if dNear >= dFar {
		t.Fatalf("codes not temporally coherent: near=%d far=%d", dNear, dFar)
	}
}

func TestHammingMismatch(t *testing.T) {
	if _, err := Hamming(NewCode(8, 8), NewCode(16, 8)); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestExtractorReset(t *testing.T) {
	g := video.NewGenerator(video.Categories()[0], 1)
	e := NewExtractor(64, 32)
	a := e.Extract(g.Render(0, 160, 90))
	e.Reset()
	b := e.Extract(g.Render(0, 160, 90))
	d, _ := Hamming(a, b)
	if d != 0 {
		t.Fatalf("reset extractor not stateless-equal: hamming %d", d)
	}
}

func TestEdgeGuideRange(t *testing.T) {
	c := NewCode(32, 16)
	for x := 0; x < 32; x++ {
		c.Set(x, 8, true)
	}
	guide := c.EdgeGuide(128, 64)
	if guide.W != 128 || guide.H != 64 {
		t.Fatal("guide geometry")
	}
	min, max := guide.MinMax()
	if min < 0 || max > 1.01 {
		t.Fatalf("guide out of [0,1]: %v..%v", min, max)
	}
	// The guide must be strongest along the edge row.
	if guide.At(64, 32) < guide.At(64, 4) {
		t.Fatal("guide not localised on the edge")
	}
}

func TestSoftPlaneNonEmpty(t *testing.T) {
	c := NewCode(16, 16)
	c.Set(8, 8, true)
	sp := c.SoftPlane()
	if _, max := sp.MinMax(); max <= 0 {
		t.Fatal("soft plane empty")
	}
}

func BenchmarkExtract(b *testing.B) {
	g := video.NewGenerator(video.Categories()[0], 1)
	frame := g.Render(0, 480, 270)
	e := NewExtractor(0, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Extract(frame)
	}
}

func TestCompressRoundTrip(t *testing.T) {
	g := video.NewGenerator(video.Categories()[2], 5)
	e := NewExtractor(0, 0)
	code := e.Extract(g.Render(20, 320, 180))
	packed := code.Compress()
	back, err := Decompress(packed)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Hamming(code, back)
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Fatalf("compression not lossless: %d differing bits", d)
	}
	t.Logf("raw %d B → compressed %d B (density %.2f)", code.SizeBytes(), len(packed), code.Density())
}

func TestCompressEmptyAndFull(t *testing.T) {
	empty := NewCode(32, 16)
	back, err := Decompress(empty.Compress())
	if err != nil {
		t.Fatal(err)
	}
	if back.Ones() != 0 || back.W != 32 || back.H != 16 {
		t.Fatal("empty code round trip")
	}
	full := NewCode(16, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 16; x++ {
			full.Set(x, y, true)
		}
	}
	back2, err := Decompress(full.Compress())
	if err != nil {
		t.Fatal(err)
	}
	if back2.Ones() != 16*8 {
		t.Fatal("full code round trip")
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, err := Decompress([]byte{1}); err == nil {
		t.Fatal("short header accepted")
	}
	// Header only, no terminator.
	if _, err := Decompress([]byte{0, 16, 0, 8}); err == nil {
		t.Fatal("truncated body accepted")
	}
}

func TestCompressPropertyRandomCodes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCode(32, 16)
		for i := 0; i < 60; i++ {
			c.Set(rng.Intn(32), rng.Intn(16), rng.Intn(2) == 0)
		}
		back, err := Decompress(c.Compress())
		if err != nil {
			return false
		}
		d, err := Hamming(c, back)
		return err == nil && d == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestNthElementMatchesSort: selection must return exactly the value a
// full sort puts at every index, for sizes 1..40 with heavy duplication,
// signed zeros and NaN, and for a code-sized array.
func TestNthElementMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(a []float64) {
		sorted := append([]float64(nil), a...)
		sort.Float64s(sorted)
		for k := range a {
			got := nthElement(append([]float64(nil), a...), k)
			if got != sorted[k] && !(math.IsNaN(got) && math.IsNaN(sorted[k])) {
				t.Fatalf("n=%d k=%d: nthElement %v, sorted %v", len(a), k, got, sorted[k])
			}
		}
		ints := make([]int, len(a))
		for i, v := range a {
			ints[i] = int(v * 7)
		}
		sortedInts := append([]int(nil), ints...)
		sort.Ints(sortedInts)
		for k := range ints {
			if got := nthElement(append([]int(nil), ints...), k); got != sortedInts[k] {
				t.Fatalf("ints n=%d k=%d: nthElement %d, sorted %d", len(a), k, got, sortedInts[k])
			}
		}
	}
	for n := 1; n <= 40; n++ {
		for rep := 0; rep < 20; rep++ {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(rng.Intn(1 + n/3))
			}
			if rep%4 == 0 {
				a[rng.Intn(n)] = math.NaN()
				a[rng.Intn(n)] = math.Copysign(0, -1)
			}
			check(a)
		}
	}
	a := make([]float64, DefaultW*DefaultH)
	for i := range a {
		a[i] = rng.ExpFloat64()
	}
	sorted := append([]float64(nil), a...)
	sort.Float64s(sorted)
	k := percentileIndex(0.86, len(a))
	if got := nthElement(a, k); got != sorted[k] {
		t.Fatalf("code-sized: nthElement %v, sorted %v", got, sorted[k])
	}
}
