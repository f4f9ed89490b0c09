package recovery

import (
	"math"
	"testing"

	"nerve/internal/codec"
	"nerve/internal/edgecode"
	"nerve/internal/metrics"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// chainOutputs runs an n-step hinted recovery chain and returns the
// recovered frames plus their mean PSNR against ground truth.
func chainOutputs(t *testing.T, fixed bool, steps int) ([]*vmath.Plane, float64) {
	t.Helper()
	g := video.NewGenerator(video.Categories()[2], 7)
	ext := edgecode.NewExtractor(0, 0)
	r := New(Config{OutW: tw, OutH: th, FixedPoint: fixed})
	prevPrev := g.Render(38, tw, th)
	prev := g.Render(39, tw, th)
	prevCode := ext.Extract(prev)
	var outs []*vmath.Plane
	var s metrics.Series
	for k := 0; k < steps; k++ {
		truth := g.Render(40+k, tw, th)
		curCode := ext.Extract(truth)
		out := r.Recover(Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: curCode})
		prevCode = curCode
		s.ObserveFrames(truth, out)
		outs = append(outs, out)
		prevPrev = prev
		prev = out
	}
	return outs, s.MeanPSNR()
}

// TestFixedPointHintedParity: the fixed tier must track the float tier
// through a multi-step recovery chain — same mean quality (within 0.5 dB)
// and small per-pixel drift (the tiers' kernels differ by ≤1 LSB per
// stage, but chained recoveries compound through flow decisions, so the
// bound is on image-level agreement, not bit-exactness).
func TestFixedPointHintedParity(t *testing.T) {
	const steps = 6
	floatOuts, floatPSNR := chainOutputs(t, false, steps)
	fixedOuts, fixedPSNR := chainOutputs(t, true, steps)
	t.Logf("PSNR vs truth: float=%.2f fixed=%.2f", floatPSNR, fixedPSNR)
	if math.Abs(floatPSNR-fixedPSNR) > 0.5 {
		t.Fatalf("tier quality diverges: float %.2f dB vs fixed %.2f dB", floatPSNR, fixedPSNR)
	}
	for k := range floatOuts {
		mae := vmath.MAE(floatOuts[k], fixedOuts[k])
		if mae > 3 {
			t.Fatalf("step %d: tiers drift apart, MAE %.2f > 3 grey levels", k, mae)
		}
	}
}

// TestFixedPointExtrapolatedRuns covers the no-code ablation under the
// fixed tier (byte flow + byte warp with no hint fusion).
func TestFixedPointExtrapolatedRuns(t *testing.T) {
	g := video.NewGenerator(video.Categories()[2], 8)
	r := New(Config{OutW: tw, OutH: th, FixedPoint: true})
	prevPrev := g.Render(10, tw, th)
	prev := g.Render(11, tw, th)
	truth := g.Render(12, tw, th)
	out := r.Recover(Input{Prev: prev, PrevPrev: prevPrev})
	if psnr := metrics.PSNR(truth, out); psnr < 15 {
		t.Fatalf("fixed extrapolated recovery PSNR %.2f dB, want ≥ 15", psnr)
	}
}

// TestFixedPointPartialClampsPastedPixels: the fixed tier skips the final
// clamp of its byte-built prediction, so received pixels outside [0, 255]
// must be clamped as they are pasted.
func TestFixedPointPartialClampsPastedPixels(t *testing.T) {
	g := video.NewGenerator(video.Categories()[2], 8)
	ext := edgecode.NewExtractor(0, 0)
	prev := g.Render(11, tw, th)
	truth := g.Render(12, tw, th)
	part := vmath.NewPlane(tw, th)
	mask := vmath.NewPlane(tw, th)
	for i := range part.Pix {
		part.Pix[i] = float32(i%3)*200 - 100 // -100, 100, 300
		mask.Pix[i] = float32(i / tw % 2)
	}
	r := New(Config{OutW: tw, OutH: th, FixedPoint: true})
	out := r.Recover(Input{Prev: prev, PrevCode: ext.Extract(prev), CurCode: ext.Extract(truth),
		Part: part, PartMask: mask})
	for i, v := range out.Pix {
		want := v
		if mask.Pix[i] > 0.5 {
			want = min(max(part.Pix[i], 0), 255)
		}
		if v != want || v < 0 || v > 255 {
			t.Fatalf("pixel %d = %v, want %v in [0, 255]", i, v, want)
		}
	}
}

// TestFixedPointZeroPlaneAllocsWarm: a warmed fixed-tier Recoverer must run
// entirely on pooled planes (byte shadows included — BytePool misses count
// into PlaneAllocs too).
func TestFixedPointZeroPlaneAllocsWarm(t *testing.T) {
	g := video.NewGenerator(video.Categories()[2], 9)
	ext := edgecode.NewExtractor(0, 0)
	r := New(Config{OutW: tw, OutH: th, FixedPoint: true})
	prevPrev := g.Render(20, tw, th)
	prev := g.Render(21, tw, th)
	prevCode := ext.Extract(prev)
	// Pre-render truths and codes: the generator does not use the plane
	// pool, so its allocations must stay out of the measurement.
	const frames = 10
	codes := make([]*edgecode.Code, frames)
	for k := 0; k < frames; k++ {
		truth := g.Render(22+k, tw, th)
		codes[k] = ext.Extract(truth)
		vmath.Put(truth)
	}
	step := func(k int) {
		out := r.Recover(Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: codes[k]})
		prevCode = codes[k]
		vmath.Put(prevPrev)
		prevPrev = prev
		prev = out
	}
	for k := 0; k < 4; k++ {
		step(k) // warm the float and byte pools
	}
	before := vmath.PlaneAllocs()
	for k := 4; k < frames; k++ {
		step(k)
	}
	if d := vmath.PlaneAllocs() - before; d != 0 {
		t.Fatalf("warm fixed-tier recovery allocated %d planes over 6 frames, want 0", d)
	}
}

func benchmarkRecoverHintedTier(b *testing.B, fixed bool) {
	const w, h = 960, 540
	g := video.NewGenerator(video.Categories()[2], 10)
	ext := edgecode.NewExtractor(0, 0)
	r := New(Config{OutW: w, OutH: h, FixedPoint: fixed})
	prevPrev := g.Render(30, w, h)
	prev := g.Render(31, w, h)
	prevCode := ext.Extract(prev)
	truth := g.Render(32, w, h)
	curCode := ext.Extract(truth)
	in := Input{Prev: prev, PrevPrev: prevPrev, PrevCode: prevCode, CurCode: curCode}
	r.Recover(in) // warm pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vmath.Put(r.Recover(in))
	}
}

func BenchmarkRecoverHintedFixed540p(b *testing.B) { benchmarkRecoverHintedTier(b, true) }
func BenchmarkRecoverHintedFloat540p(b *testing.B) { benchmarkRecoverHintedTier(b, false) }

// BenchmarkRecoverLostGamePlay540p times fixed-tier recovery where its cost
// is: GamePlay content (fast motion, new objects) at the play-lossy
// geometry, recovering from codec-decoded frames in chains of three
// consecutive losses the way the pipeline chains them. Decoded references
// and chained recoveries disagree with the received codes far more than
// pristine frames do, so the mismatch branch opens about five times the holes
// of BenchmarkRecoverHintedFixed540p and inpainting carries its real
// share. Iteration i runs step i%3 of the chain; every chain restarts
// from the decoded frames, so each iteration sees the same inputs.
func BenchmarkRecoverLostGamePlay540p(b *testing.B) {
	const w, h, start, chain = 960, 540, 17, 3
	g := video.NewGenerator(video.Categories()[3], 1)
	ext := edgecode.NewExtractor(0, 0)
	enc := codec.NewEncoder(codec.Config{W: w, H: h, GOP: 60, TargetBitrate: 6e6, PacketPayload: 1200})
	dec := codec.NewDecoder(codec.Config{W: w, H: h})
	// The stream runs from its intra frame, as the server sends it: the
	// codec drift and the code extractor's temporal state build up over
	// the frames before the chain.
	frames := make([]*vmath.Plane, start)
	codes := make([]*edgecode.Code, start+chain)
	for k := range codes {
		src := g.Render(k, w, h)
		codes[k] = ext.Extract(src)
		if k < start {
			res, err := dec.Decode(enc.Encode(src), nil)
			if err != nil {
				b.Fatal(err)
			}
			if k >= start-2 { // only I_{t-2} and I_{t-1} are read
				frames[k] = res.Frame.Clone()
			}
		}
	}
	r := New(Config{OutW: w, OutH: h, FixedPoint: true})
	outs := make([]*vmath.Plane, chain)
	step := func(i int) {
		k := i % chain
		if k == 0 {
			for j, o := range outs {
				vmath.Put(o)
				outs[j] = nil
			}
			r.Reset()
		}
		// I_{t-1} and I_{t-2}: decoded frames before the chain, recovered
		// ones inside it.
		at := func(j int) *vmath.Plane {
			if j < 0 {
				return frames[start+j]
			}
			return outs[j]
		}
		outs[k] = r.Recover(Input{Prev: at(k - 1), PrevPrev: at(k - 2),
			PrevCode: codes[start+k-1], CurCode: codes[start+k]})
	}
	for i := 0; i < 2*chain; i++ {
		step(i) // warm the pools
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}
