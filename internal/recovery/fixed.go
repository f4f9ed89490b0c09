package recovery

import (
	"nerve/internal/flow"
	"nerve/internal/vmath"
	"nerve/internal/warp"
)

// The warp stage of the recovery pipeline — work-resolution resampling of
// the previous frames, base flow estimation and the backward warp — is the
// area-bound part of Recover, and the part with an integer tier. These
// three helpers are the only tier switch: prepPrevWork materialises
// I_{t-1} at work resolution in the active representation, baseFlow
// estimates the extrapolation field from I_{t-2}, and warpPrev consumes
// the prepared plane to produce float warped/valid planes for the (always
// float) mismatch/inpaint/enhance branches. The scratch handoff lives on
// the Recoverer so the float tier still resizes I_{t-1} exactly once per
// frame.

// prepPrevWork resamples prev to work resolution into r.prevWork (float
// tier) or r.prevWorkB (fixed tier). warpPrev releases it.
func (r *Recoverer) prepPrevWork(prev *vmath.Plane) {
	cfg := r.cfg
	if !cfg.FixedPoint {
		r.prevWork = vmath.ResizeBilinearInto(vmath.Get(cfg.WorkW, cfg.WorkH), prev)
		return
	}
	r.prevWorkB = vmath.ResizeBilinearToBytesInto(vmath.GetBytes(cfg.WorkW, cfg.WorkH), prev)
}

// baseFlow estimates work-resolution flow I_{t-2} → I_{t-1}, or returns
// nil when I_{t-2} is unavailable. Must run between prepPrevWork and
// warpPrev. The fixed tier runs flow.EstimateBytes over byte pyramids with
// the SWAR SAD; options are identical, and both tiers return a float Field
// owned by the caller.
func (r *Recoverer) baseFlow(in Input) *flow.Field {
	if in.PrevPrev == nil {
		return nil
	}
	cfg := r.cfg
	opts := flow.Options{Levels: 3, Search: 3, ZeroBias: 0.4}
	if !cfg.FixedPoint {
		prevPrevWork := vmath.ResizeBilinearInto(vmath.Get(cfg.WorkW, cfg.WorkH), in.PrevPrev)
		f := flow.Estimate(prevPrevWork, r.prevWork, opts)
		vmath.Put(prevPrevWork)
		return f
	}
	// At large work resolutions the fixed tier estimates flow at half
	// resolution and resamples the field up — block flow is already
	// piecewise-constant, so halving the SAD area costs almost nothing in
	// accuracy but 4× in time. Small frames (and the parity tests' 160×96
	// geometry) keep full resolution.
	fw, fh := cfg.WorkW, cfg.WorkH
	if cfg.WorkH >= 200 {
		fw, fh = cfg.WorkW/2, cfg.WorkH/2
	}
	ppFlowB := vmath.ResizeBilinearToBytesInto(vmath.GetBytes(fw, fh), in.PrevPrev)
	prevFlowB := r.prevWorkB
	if fw != cfg.WorkW || fh != cfg.WorkH {
		prevFlowB = vmath.GetBytes(fw, fh)
		vmath.ResizeBilinearBytesInto(prevFlowB, r.prevWorkB)
	}
	f := flow.EstimateBytes(ppFlowB, prevFlowB, opts)
	vmath.PutBytes(ppFlowB)
	if prevFlowB != r.prevWorkB {
		vmath.PutBytes(prevFlowB)
		up := f.Resample(cfg.WorkW, cfg.WorkH)
		f.Release()
		f = up
	}
	return f
}

// resizeOut lifts the finished work-resolution frame to output resolution
// (float tier; the fixed tier's finishFixed embeds the byte resize).
func (r *Recoverer) resizeOut(work *vmath.Plane) *vmath.Plane {
	return vmath.ResizeBilinearInto(vmath.Get(r.cfg.OutW, r.cfg.OutH), work)
}

// finishFixed is the fixed tier's enhance + output resize, fused so the
// frame is rounded to bytes exactly once: integer binomial unsharp in
// place (vmath.SharpenBytesInto, standing in for the float tier's σ=1
// gaussian unsharp at the same amount), history blend and EMA update in Q8
// against a byte-plane H, then the Q15 SWAR upscale to output resolution.
// The float tier's enhance/resizeOut pair is the reference; the fused
// byte path trades ≤1 LSB per stage for the largest single cut in the
// recovery deadline budget.
func (r *Recoverer) finishFixed(img, valid *vmath.Plane) *vmath.Plane {
	cfg := r.cfg
	imgB := vmath.GetBytes(img.W, img.H).FromPlane(img)
	amount := 0.25 * (float64(cfg.OutH)/float64(cfg.WorkH) - 1)
	if amount > 0.35 {
		amount = 0.35
	}
	if amount > 0.01 {
		vmath.SharpenBytesInto(imgB, imgB, int32(amount*256+0.5))
	}
	if r.historyB != nil && r.historyB.W == imgB.W && r.historyB.H == imgB.H {
		hw := int32(cfg.HistoryWeight*256 + 0.5)
		for i := range imgB.Pix {
			if valid.Pix[i] < 0.5 {
				v := int32(imgB.Pix[i])
				h := int32(r.historyB.Pix[i])
				imgB.Pix[i] = uint8(v + (hw*(h-v)+128)>>8)
			}
		}
	}
	// H ← EMA of recovered frames (0.6 toward the current frame, like the
	// float tier), held as a persistent pooled byte plane.
	if r.historyB == nil || r.historyB.W != imgB.W || r.historyB.H != imgB.H {
		vmath.PutBytes(r.historyB)
		r.historyB = vmath.GetBytes(imgB.W, imgB.H)
		copy(r.historyB.Pix, imgB.Pix)
	} else {
		const ema = 154 // round(0.6 · 256)
		for i := range r.historyB.Pix {
			h := int32(r.historyB.Pix[i])
			v := int32(imgB.Pix[i])
			r.historyB.Pix[i] = uint8(h + (ema*(v-h)+128)>>8)
		}
	}
	res := vmath.Get(cfg.OutW, cfg.OutH)
	if cfg.OutW == imgB.W && cfg.OutH == imgB.H {
		imgB.ToPlane(res)
		vmath.PutBytes(imgB)
		return res
	}
	outB := vmath.GetBytes(cfg.OutW, cfg.OutH)
	vmath.ResizeBilinearBytesInto(outB, imgB)
	vmath.PutBytes(imgB)
	outB.ToPlane(res)
	vmath.PutBytes(outB)
	return res
}

// warpPrev backward-warps the prepared previous frame along f and releases
// the prepared scratch. Both tiers return float planes (owned by the
// caller) with identical semantics: warped pixels plus a 0/1 validity
// mask. The fixed tier's valid mask is bit-identical to the float tier's
// for the same field (the in-bounds test runs on the float positions); the
// warped pixels differ by ≤1 LSB.
func (r *Recoverer) warpPrev(f *flow.Field) (warped, valid *vmath.Plane) {
	cfg := r.cfg
	warped = vmath.Get(cfg.WorkW, cfg.WorkH)
	valid = vmath.Get(cfg.WorkW, cfg.WorkH)
	if !cfg.FixedPoint {
		warp.BackwardInto(warped, valid, r.prevWork, f, cfg.ConfThreshold)
		vmath.Put(r.prevWork)
		r.prevWork = nil
		return warped, valid
	}
	warpedB := vmath.GetBytes(cfg.WorkW, cfg.WorkH)
	validB := vmath.GetBytes(cfg.WorkW, cfg.WorkH)
	warp.BackwardBytesInto(warpedB, validB, r.prevWorkB, f, cfg.ConfThreshold)
	vmath.PutBytes(r.prevWorkB)
	r.prevWorkB = nil
	warpedB.ToPlane(warped)
	validB.ToPlane(valid)
	vmath.PutBytes(warpedB)
	vmath.PutBytes(validB)
	return warped, valid
}
