// Package recovery implements the hint-assisted video recovery model of §4:
// given the previous frame, the binary point codes of the previous and
// current frames (delivered over the reliable side channel), and optionally
// the partially decoded current frame, it reconstructs the current frame.
//
// The pipeline mirrors the paper's three branches:
//
//  1. warp — optical flow between the consecutive binary point codes is
//     upsampled to the (reduced, 270p-style) working resolution and the
//     previous frame is backward-warped along it;
//  2. inpaint — regions the warp could not source (new content entering
//     the scene, occlusions, low-confidence flow) are filled by an
//     edge-guided diffusion steered by the current code, which tells the
//     client where contours of the unseen content lie;
//  3. enhance — the warped content is sharpened and blended with the
//     decoder-side temporal history state H to compensate for the
//     work-resolution downsampling.
//
// Two ablations used throughout the evaluation are provided: prediction
// without the code (flow extrapolated from the two previous frames, as in
// classical video prediction) and plain frame reuse.
//
// All per-frame intermediates live in the vmath plane pool, so a warmed-up
// Recoverer performs no plane allocations. Planes returned by Recover and
// Reuse are pool-backed and owned by the caller.
package recovery

import (
	"fmt"

	"nerve/internal/edgecode"
	"nerve/internal/flow"
	"nerve/internal/par"
	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// Config parameterises a Recoverer.
type Config struct {
	// OutW, OutH is the display resolution of recovered frames.
	OutW, OutH int
	// WorkW, WorkH is the warping/inpainting resolution (the paper warps
	// at 270p to fit the mobile latency budget). Zero selects OutW/OutH
	// scaled down to a height of at most 270.
	WorkW, WorkH int
	// ConfThreshold is the flow confidence below which warped pixels are
	// treated as holes (default 0.35).
	ConfThreshold float32
	// InpaintIters is the number of diffusion iterations (default 40).
	InpaintIters int
	// HistoryWeight blends the temporal state H into low-confidence
	// output (default 0.15).
	HistoryWeight float32
	// FixedPoint selects the integer tier for the heavy kernels: byte-plane
	// work-resolution resampling, SWAR-SAD block flow (flow.EstimateBytes)
	// and the Q15 SWAR backward warp (warp.BackwardBytesInto). The
	// mismatch and inpaint branches stay float on the work plane in both
	// tiers. They are not cheap: inpainting costs holes × InpaintIters,
	// and on fast content recovered from decoded frames the holes run
	// from a few thousand to a third of the 480×270 work plane, so its
	// kernel is built for that load (see inpaint). The tiers produce
	// near-identical output (TestFixedPointHintedParity); fixed point
	// exists for the frame deadline, trading ≤1 LSB kernel error for
	// roughly half the recovery latency.
	FixedPoint bool
}

func (c Config) withDefaults() Config {
	if c.OutW <= 0 || c.OutH <= 0 {
		panic(fmt.Sprintf("recovery: invalid output size %dx%d", c.OutW, c.OutH))
	}
	if c.WorkW <= 0 || c.WorkH <= 0 {
		if c.OutH > 270 {
			scale := 270.0 / float64(c.OutH)
			c.WorkH = 270
			c.WorkW = int(float64(c.OutW)*scale+0.5) &^ 1
		} else {
			c.WorkW, c.WorkH = c.OutW, c.OutH
		}
	}
	if c.ConfThreshold == 0 {
		c.ConfThreshold = 0.35
	}
	if c.InpaintIters <= 0 {
		c.InpaintIters = 40
	}
	if c.HistoryWeight == 0 {
		c.HistoryWeight = 0.15
	}
	return c
}

// Input bundles everything available to recover the current frame.
type Input struct {
	// Prev is the previously displayed frame I_{t-1} at output resolution
	// (required).
	Prev *vmath.Plane
	// PrevPrev is I_{t-2}; used only when codes are absent (extrapolation
	// mode) — the classical video-prediction ablation.
	PrevPrev *vmath.Plane
	// PrevCode and CurCode are the binary point codes C_{t-1} and C_t.
	// When both are present the recovery runs in full (hinted) mode.
	PrevCode, CurCode *edgecode.Code
	// Part is the partially decoded current frame (Ipart) and PartMask
	// marks its valid pixels with 1; both nil for a complete loss.
	Part, PartMask *vmath.Plane
}

// Recoverer runs the recovery model. It keeps the temporal history state H
// across calls; feed frames in playout order and Reset at scene changes or
// stream restarts. Its kernel tier (Config.FixedPoint) is set once by New
// and holds for the Recoverer's life, so only that tier's H is populated.
type Recoverer struct {
	cfg      Config
	history  *vmath.Plane     // float-tier H at work resolution; persistent pooled plane
	historyB *vmath.BytePlane // fixed-tier H; see finishFixed

	// Per-frame scratch reused across calls (never escapes).
	holes   []int
	mismExt *edgecode.Extractor
	mismA   []bool
	mismB   []bool
	mismC   []bool

	// prevWork/prevWorkB hold I_{t-1} at work resolution between
	// prepPrevWork and warpPrev within one Recover call (exactly one is
	// non-nil depending on the tier; see fixed.go).
	prevWork  *vmath.Plane
	prevWorkB *vmath.BytePlane
}

// New returns a Recoverer for the configuration.
func New(cfg Config) *Recoverer {
	return &Recoverer{cfg: cfg.withDefaults()}
}

// Config returns the effective configuration (defaults applied).
func (r *Recoverer) Config() Config { return r.cfg }

// Reset clears the temporal history state.
func (r *Recoverer) Reset() {
	vmath.Put(r.history)
	r.history = nil
	vmath.PutBytes(r.historyB)
	r.historyB = nil
}

// Reuse is the baseline that simply replays the previous frame. The result
// is a fresh pool-backed plane owned by the caller (never aliases prev).
func (r *Recoverer) Reuse(prev *vmath.Plane) *vmath.Plane {
	return vmath.ResizeBilinearInto(vmath.Get(r.cfg.OutW, r.cfg.OutH), prev)
}

// Recover reconstructs the current frame from in. Mode selection:
// both codes present → hinted recovery; PrevPrev present → extrapolated
// prediction (no-code ablation); otherwise frame reuse. If Part/PartMask
// are set, received regions override the prediction (partial concealment).
// The returned plane is pool-backed and owned by the caller; the Recoverer
// never retains a reference to it.
func (r *Recoverer) Recover(in Input) *vmath.Plane {
	defer telemetry.Start(telemetry.StageRecovery).Stop()
	if in.Prev == nil {
		panic("recovery: Input.Prev is required")
	}
	var out *vmath.Plane
	// The fixed tier's predictions are built from byte planes, so they
	// already lie in [0, 255] and skip the final clamp; overridePartial
	// clamps what it pastes.
	inRange := false
	switch {
	case in.PrevCode != nil && in.CurCode != nil:
		out, inRange = r.recoverHinted(in), r.cfg.FixedPoint
	case in.PrevPrev != nil:
		out, inRange = r.recoverExtrapolated(in), r.cfg.FixedPoint
	default:
		out = r.Reuse(in.Prev)
	}
	if in.Part != nil && in.PartMask != nil {
		out = r.overridePartial(out, in.Part, in.PartMask)
	}
	if !inRange {
		out.Clamp255()
	}
	return out
}

// recoverHinted is the full pipeline. The binary point code plays its two
// roles from the paper: its delta against the previous code carries the
// true motion of the *current* frame (which extrapolation cannot know), and
// its contours reveal where the warped prediction is wrong (new content, so
// those regions are re-synthesised by edge-guided inpainting).
func (r *Recoverer) recoverHinted(in Input) *vmath.Plane {
	cfg := r.cfg
	r.prepPrevWork(in.Prev)

	// Base motion: frame-based flow extrapolated one step when I_{t-2}
	// is available (one step of constant velocity is the field itself),
	// otherwise zero motion.
	base := r.baseFlow(in)
	if base == nil {
		base = flow.NewField(cfg.WorkW, cfg.WorkH)
		for i := range base.Conf {
			base.Conf[i] = 0.5
		}
	}

	// Hint motion: flow between the consecutive binary point codes. Codes
	// are sparse, so matching uses a strong zero bias and the result is
	// only trusted where its confidence is high (see fuseHint).
	prevSoft := in.PrevCode.SoftPlane()
	curSoft := in.CurCode.SoftPlane()
	codeFlow := flow.Estimate(prevSoft, curSoft,
		flow.Options{Levels: 2, Search: 2, ZeroBias: 1.5})
	vmath.Put(prevSoft)
	vmath.Put(curSoft)
	// Fuse into the base field in place: nothing reads the pure
	// extrapolation afterwards.
	fuseHint(base, codeFlow)
	codeFlow.Release()
	warped, valid := r.warpPrev(base)
	base.Release()

	// Mismatch detection: contours promised by the current code that the
	// warped prediction does not contain (and stale contours it should
	// not contain) become holes for the inpainting branch.
	r.markCodeMismatch(warped, valid, in.CurCode)

	// Ipart at work resolution is real data: feed it into the inpainting
	// as known pixels so diffusion grows from truth.
	r.overlayPartWork(warped, valid, in)

	// Inpaint holes guided by the current code's contours, then enhance.
	guide := in.CurCode.EdgeGuide(cfg.WorkW, cfg.WorkH)
	filled := r.inpaint(warped, valid, guide, cfg.InpaintIters)
	vmath.Put(guide)
	vmath.Put(warped)
	var res *vmath.Plane
	if cfg.FixedPoint {
		res = r.finishFixed(filled, valid)
		vmath.Put(filled)
	} else {
		out := r.enhance(filled, valid)
		res = r.resizeOut(out)
		vmath.Put(out)
	}
	vmath.Put(valid)
	return res
}

// snapThresh is the distance from an integer within which a recovery flow
// vector component is snapped to it: exact copies avoid generation loss
// over consecutive recoveries.
const snapThresh = 0.35

// fuseHint folds the code-flow hint into base in place, in one pass over
// the work field. Per pixel it resamples the hint to base's geometry
// exactly as flow.Field.Resample would (bilinear, vectors scaled by the
// resolution ratio), leans base toward it where the hint is confident and
// disagrees with the extrapolation (the hint knows the current frame;
// extrapolation only assumes constant velocity), keeps the larger
// confidence, and snaps near-integer vectors — the float32 operations of
// the separate resample, fuse and SnapIntegers passes, in their order, so
// the field is bit-identical to theirs. The hint's rows are lerped
// horizontally once each (vmath.ResizeRowsBilinearInto) and blended
// vertically here; output rows are independent, so they run on the
// shared pool.
func fuseHint(base, hint *flow.Field) {
	w, h := base.W, base.H
	sx := float32(w) / float32(hint.W)
	sy := float32(h) / float32(hint.H)
	rows := func(ch []float32) *vmath.Plane {
		return vmath.ResizeRowsBilinearInto(vmath.Get(w, hint.H), vmath.FromSlice(hint.W, hint.H, ch))
	}
	ru, rv, rc := rows(hint.U), rows(hint.V), rows(hint.Conf)
	yt := vmath.LerpTaps(hint.H, h)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			ty := yt[y]
			t, b := int(ty.I0)*w, int(ty.I1)*w
			for x := 0; x < w; x++ {
				hu := lerp(ru.Pix[t+x], ru.Pix[b+x], ty.F) * sx
				hv := lerp(rv.Pix[t+x], rv.Pix[b+x], ty.F) * sy
				hc := lerp(rc.Pix[t+x], rc.Pix[b+x], ty.F)
				i := y*w + x
				wt := hc * hc * 0.6
				u := base.U[i] + wt*(hu-base.U[i])
				v := base.V[i] + wt*(hv-base.V[i])
				if hc > base.Conf[i] {
					base.Conf[i] = hc
				}
				base.U[i] = flow.SnapInteger(u, snapThresh)
				base.V[i] = flow.SnapInteger(v, snapThresh)
			}
		}
	})
	vmath.Put(ru)
	vmath.Put(rv)
	vmath.Put(rc)
}

// lerp is the vertical step of vmath.ResizeBilinearInto.
func lerp(top, bot, f float32) float32 { return top + f*(bot-top) }

// overlayPartWork resamples the partial frame and its mask to work
// resolution (pooled scratch) and pastes received pixels into warped/valid.
func (r *Recoverer) overlayPartWork(warped, valid *vmath.Plane, in Input) {
	if in.Part == nil || in.PartMask == nil {
		return
	}
	cfg := r.cfg
	partWork := vmath.ResizeBilinearInto(vmath.Get(cfg.WorkW, cfg.WorkH), in.Part)
	maskWork := vmath.ResizeBilinearInto(vmath.Get(cfg.WorkW, cfg.WorkH), in.PartMask)
	for i := range warped.Pix {
		if maskWork.Pix[i] > 0.5 {
			warped.Pix[i] = partWork.Pix[i]
			valid.Pix[i] = 1
		}
	}
	vmath.Put(partWork)
	vmath.Put(maskWork)
}

// markCodeMismatch compares the contours of the warped prediction against
// the received current code and clears `valid` where they disagree, bounded
// so inpainting never overwhelms a mostly-correct prediction. The extractor
// and mismatch bitmaps are scratch kept on the Recoverer.
func (r *Recoverer) markCodeMismatch(warped, valid *vmath.Plane, cur *edgecode.Code) {
	if r.mismExt == nil || r.mismExt.W != cur.W || r.mismExt.H != cur.H {
		r.mismExt = edgecode.NewExtractor(cur.W, cur.H)
		r.mismExt.HistoryWeight = 0
	}
	ext := r.mismExt
	ext.TargetDensity = cur.Density()
	if ext.TargetDensity < 0.02 {
		return
	}
	predCode := ext.Extract(warped)

	const nb = 2 // contour match tolerance in code pixels
	if len(r.mismA) < cur.W*cur.H {
		r.mismA = make([]bool, cur.W*cur.H)
		r.mismB = make([]bool, cur.W*cur.H)
	}
	mism := r.mismA[:cur.W*cur.H]
	for i := range mism {
		mism[i] = false
	}
	total := 0
	for y := 0; y < cur.H; y++ {
		for x := 0; x < cur.W; x++ {
			cb := cur.Get(x, y)
			pb := predCode.Get(x, y)
			if cb == pb {
				continue
			}
			// A bit mismatches only when no counterpart exists nearby.
			other := predCode
			if pb {
				other = cur
			}
			found := false
			for dy := -nb; dy <= nb && !found; dy++ {
				for dx := -nb; dx <= nb; dx++ {
					xx, yy := x+dx, y+dy
					if xx < 0 || yy < 0 || xx >= cur.W || yy >= cur.H {
						continue
					}
					if other.Get(xx, yy) {
						found = true
						break
					}
				}
			}
			if !found {
				mism[y*cur.W+x] = true
			}
		}
	}
	// Filter isolated mismatch bits (code noise): a genuine new object or
	// motion error produces clustered mismatches.
	filtered := r.mismB[:cur.W*cur.H]
	for i := range filtered {
		filtered[i] = false
	}
	for y := 0; y < cur.H; y++ {
		for x := 0; x < cur.W; x++ {
			if !mism[y*cur.W+x] {
				continue
			}
			neighbours := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					if dx == 0 && dy == 0 {
						continue
					}
					xx, yy := x+dx, y+dy
					if xx < 0 || yy < 0 || xx >= cur.W || yy >= cur.H {
						continue
					}
					if mism[yy*cur.W+xx] {
						neighbours++
					}
				}
			}
			if neighbours >= 2 {
				filtered[y*cur.W+x] = true
				total++
			}
		}
	}
	mism = filtered
	// Bound the damage: if more than 35% of contour bits mismatch the
	// scene changed wholesale; inpainting everything would be worse than
	// keeping the warp, so only the strongest signal (the raw mismatches,
	// undilated) is used in that case.
	dilate := total*4 < cur.W*cur.H/10*35/10
	rad := 1
	if dilate {
		rad = 2
	}
	// Dilate by rad in code space with two separable passes (the naive
	// per-work-pixel neighbourhood scan was a top-three term of the
	// recovery profile), then clear valid with one lookup per work pixel.
	if len(r.mismC) < cur.W*cur.H {
		r.mismC = make([]bool, cur.W*cur.H)
	}
	hor := r.mismA[:cur.W*cur.H] // raw mismatch bits are dead past this point
	dil := r.mismC[:cur.W*cur.H]
	for y := 0; y < cur.H; y++ {
		row := mism[y*cur.W : y*cur.W+cur.W]
		out := hor[y*cur.W : y*cur.W+cur.W]
		for x := range out {
			hit := false
			for dx := -rad; dx <= rad; dx++ {
				if xx := x + dx; xx >= 0 && xx < cur.W && row[xx] {
					hit = true
					break
				}
			}
			out[x] = hit
		}
	}
	for y := 0; y < cur.H; y++ {
		out := dil[y*cur.W : y*cur.W+cur.W]
		for x := range out {
			hit := false
			for dy := -rad; dy <= rad; dy++ {
				if yy := y + dy; yy >= 0 && yy < cur.H && hor[yy*cur.W+x] {
					hit = true
					break
				}
			}
			out[x] = hit
		}
	}
	sx := float64(cur.W) / float64(valid.W)
	sy := float64(cur.H) / float64(valid.H)
	for y := 0; y < valid.H; y++ {
		cy := int(float64(y) * sy)
		crow := dil[cy*cur.W : cy*cur.W+cur.W]
		for x := 0; x < valid.W; x++ {
			if crow[int(float64(x)*sx)] {
				valid.Pix[y*valid.W+x] = 0
			}
		}
	}
}

// recoverExtrapolated predicts the frame without a hint: flow between the
// two previous frames is extrapolated one step forward (constant velocity),
// and inpainting runs unguided.
func (r *Recoverer) recoverExtrapolated(in Input) *vmath.Plane {
	cfg := r.cfg
	r.prepPrevWork(in.Prev)
	// Flow from I_{t-2} to I_{t-1}; assuming constant motion, the same
	// field predicts I_t from I_{t-1} — one extrapolation step is the
	// field itself, so it is snapped and used directly.
	f := r.baseFlow(in)
	ext := f.SnapIntegers(snapThresh)
	warped, valid := r.warpPrev(ext)
	f.Release()
	r.overlayPartWork(warped, valid, in)
	filled := r.inpaint(warped, valid, nil, cfg.InpaintIters)
	vmath.Put(warped)
	var res *vmath.Plane
	if cfg.FixedPoint {
		res = r.finishFixed(filled, valid)
		vmath.Put(filled)
	} else {
		out := r.enhance(filled, valid)
		res = r.resizeOut(out)
		vmath.Put(out)
	}
	vmath.Put(valid)
	return res
}

// enhance applies the enhancement branch in place on img: a light unsharp
// to recover the detail lost to work-resolution processing (scaled by how
// much resolution the work stage actually gave up), plus temporal blending
// with the history state H in low-validity regions. It updates H and
// returns img.
func (r *Recoverer) enhance(img, valid *vmath.Plane) *vmath.Plane {
	// No downsampling loss to compensate when work == output resolution.
	amount := 0.25 * (float64(r.cfg.OutH)/float64(r.cfg.WorkH) - 1)
	if amount > 0.35 {
		amount = 0.35
	}
	out := img
	if amount > 0.01 {
		// UnsharpMaskInto materialises the blur first, so dst may alias src.
		vmath.UnsharpMaskInto(out, img, 1.0, amount)
	}
	// Blend with history where the warp had no reliable source: the
	// history carries content diffusion alone cannot invent.
	if r.history != nil && r.history.W == out.W && r.history.H == out.H {
		hw := r.cfg.HistoryWeight
		for i := range out.Pix {
			if valid.Pix[i] < 0.5 {
				out.Pix[i] = out.Pix[i] + hw*(r.history.Pix[i]-out.Pix[i])
			}
		}
	}
	// H ← EMA of recovered frames, held in a persistent pooled plane.
	if r.history == nil || r.history.W != out.W || r.history.H != out.H {
		vmath.Put(r.history)
		r.history = vmath.Get(out.W, out.H).CopyFrom(out)
	} else {
		vmath.Lerp(r.history, r.history, out, 0.6)
	}
	return out
}

// overridePartial pastes received content over the prediction in place (the
// paper: "partial content is also used to override the predicted frame in
// the corresponding region") and returns pred. Pasted pixels are clamped to
// [0, 255] as Clamp255 would clamp them.
func (r *Recoverer) overridePartial(pred, part, mask *vmath.Plane) *vmath.Plane {
	p := part
	m := mask
	pooled := false
	if part.W != pred.W || part.H != pred.H {
		p = vmath.ResizeBilinearInto(vmath.Get(pred.W, pred.H), part)
		m = vmath.ResizeBilinearInto(vmath.Get(pred.W, pred.H), mask)
		pooled = true
	}
	for i := range pred.Pix {
		if m.Pix[i] > 0.5 {
			v := p.Pix[i]
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			pred.Pix[i] = v
		}
	}
	if pooled {
		vmath.Put(p)
		vmath.Put(m)
	}
	return pred
}

// inpaint fills pixels with valid==0 by iterative 4-neighbour diffusion.
// When guide is non-nil (a [0,1] edge map), diffusion across strong edges
// is damped so filled regions respect the hinted contours. Valid pixels
// are hard constraints; each hole keeps a self-anchor to its warped value,
// so mildly wrong content is adjusted rather than erased (pure diffusion
// would wipe texture that is only a couple of pixels out of place).
// The result is a fresh pool-backed plane; img is left untouched (it is
// the diffusion anchor). The hole index list is scratch on the Recoverer.
//
// The weight a hole pulls a neighbour with depends only on the neighbour
// (its guide edge strength and whether it is valid), never on the
// iteration, so it is computed once into a pooled pull-weight plane. The
// Jacobi steps then ping-pong between two pooled planes that agree on
// every non-hole pixel, so no step copies its result back. Each step
// splits the hole list into fixed-size chunks on the shared pool: a step
// reads only the previous plane and writes only its own holes, and chunk
// boundaries depend on the hole count alone, so the result is the same
// for every worker count.
func (r *Recoverer) inpaint(img, valid, guide *vmath.Plane, iters int) *vmath.Plane {
	out, holes := inpaintScratch(img, valid, guide, iters, r.holes)
	r.holes = holes
	return out
}

// inpaint is the scratch-free convenience form.
func inpaint(img, valid, guide *vmath.Plane, iters int) *vmath.Plane {
	out, _ := inpaintScratch(img, valid, guide, iters, nil)
	return out
}

// inpaintChunk is the number of holes per parallel task of one Jacobi
// step.
const inpaintChunk = 4096

func inpaintScratch(img, valid, guide *vmath.Plane, iters int, scratch []int) (*vmath.Plane, []int) {
	w, h := img.W, img.H
	out := vmath.Get(w, h).CopyFrom(img)
	holes := scratch[:0]
	for i := range out.Pix {
		if valid.Pix[i] < 0.5 {
			holes = append(holes, i)
		}
	}
	if len(holes) == 0 || iters <= 0 {
		return out, holes
	}

	// Pull weights: damped across hinted contours, doubled from valid
	// pixels (truth anchors).
	pull := vmath.Get(w, h)
	for j := range pull.Pix {
		wgt := float32(1)
		if guide != nil {
			wgt = 1 - 0.85*guide.Pix[j]
			if wgt < 0.05 {
				wgt = 0.05
			}
		}
		if valid.Pix[j] >= 0.5 {
			wgt *= 2
		}
		pull.Pix[j] = wgt
	}

	const selfWeight = 0.8
	cur, next := out, vmath.Get(w, h).CopyFrom(img)
	step := func(c int) {
		chunk := holes[c*inpaintChunk : min((c+1)*inpaintChunk, len(holes))]
		src, dst, pw, anchor := cur.Pix, next.Pix, pull.Pix, img.Pix
		// Holes ascend, so the row is tracked instead of divided out.
		y := chunk[0] / w
		row := y * w
		for _, i := range chunk {
			for i >= row+w {
				row += w
				y++
			}
			x := i - row
			acc := selfWeight * anchor[i]
			wsum := float32(selfWeight)
			if x > 0 {
				acc += pw[i-1] * src[i-1]
				wsum += pw[i-1]
			}
			if x < w-1 {
				acc += pw[i+1] * src[i+1]
				wsum += pw[i+1]
			}
			if y > 0 {
				acc += pw[i-w] * src[i-w]
				wsum += pw[i-w]
			}
			if y < h-1 {
				acc += pw[i+w] * src[i+w]
				wsum += pw[i+w]
			}
			dst[i] = acc / wsum // wsum ≥ selfWeight > 0
		}
	}
	chunks := (len(holes) + inpaintChunk - 1) / inpaintChunk
	for it := 0; it < iters; it++ {
		par.For(chunks, step)
		cur, next = next, cur
	}
	vmath.Put(next)
	vmath.Put(pull)
	return cur, holes
}
