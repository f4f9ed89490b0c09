package sr

import (
	"fmt"

	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// FastUpscaler is the byte-plane SR head — the fixed-point tier of the
// enhancement stage. Where SuperResolver runs the full §5 model (bicubic
// base, flow-aligned temporal fusion, iterative back-projection, detail
// head) in float planes, FastUpscaler keeps the whole path in uint8/int16:
// an integer binomial unsharp sharpens the LR frame at LR cost, then the
// Q15 SWAR bilinear resize lifts it to display resolution. That is the
// deadline tier: detail synthesis comparable to the analytic head, at
// roughly two integer passes per output pixel, with no temporal state to
// warp — which is what lets a 1080p decode→recover→SR frame fit the 33 ms
// budget on one core (DESIGN.md §10).
//
// The head is stateless across frames (no fusion history): Reset only
// returns its scratch planes to the pool, and the output depends only on
// the current LR frame.
type FastUpscaler struct {
	cfg   Config
	sharp *vmath.BytePlane // persistent pooled scratch at LR geometry
	// lrB and outB are Upscale's byte shadows of its input and output,
	// persistent like sharp. Holding them keeps the head out of the pool
	// while a pipelined ingest stage draws the same bucket for recovery's
	// byte flow, so the pool's warm high-water mark does not depend on how
	// the two stages interleave.
	lrB, outB *vmath.BytePlane
}

// NewFast builds the byte-plane head for the configuration. Only OutW,
// OutH and DetailBoost are consulted; the temporal and back-projection
// knobs have no fixed-point counterpart.
func NewFast(cfg Config) *FastUpscaler {
	cfg = cfg.withDefaults()
	return &FastUpscaler{cfg: cfg}
}

// Config returns the effective configuration.
func (s *FastUpscaler) Config() Config { return s.cfg }

// Reset drops scratch state (there is no temporal state to clear).
func (s *FastUpscaler) Reset() {
	vmath.PutBytes(s.sharp)
	vmath.PutBytes(s.lrB)
	vmath.PutBytes(s.outB)
	s.sharp, s.lrB, s.outB = nil, nil, nil
}

// scratchBytes returns p when it is already w×h, otherwise returns p to the
// pool and draws a w×h replacement.
func scratchBytes(p *vmath.BytePlane, w, h int) *vmath.BytePlane {
	if p != nil && p.W == w && p.H == h {
		return p
	}
	vmath.PutBytes(p)
	return vmath.GetBytes(w, h)
}

// boost256 derives the Q8 sharpening amount from the upscale factor with
// exactly SuperResolver.detailBoost's formula, rounded once.
func (s *FastUpscaler) boost256(lrW int) int32 {
	var b float32
	if s.cfg.DetailBoost != 0 {
		b = s.cfg.DetailBoost
	} else {
		factor := float32(s.cfg.OutW) / float32(lrW)
		b = 0.08 * (factor - 1)
		if b > 0.35 {
			b = 0.35
		}
		if b < 0 {
			b = 0
		}
	}
	return int32(b*256 + 0.5)
}

// UpscaleBytesInto enhances one LR byte frame into dst, which must be
// OutW×OutH and not alias lr. Every output pixel is written, so dst may
// come dirty from the pool. A warmed-up head performs zero plane
// allocations per call (the LR sharpening scratch is persistent and
// pooled).
func (s *FastUpscaler) UpscaleBytesInto(dst, lr *vmath.BytePlane) *vmath.BytePlane {
	defer telemetry.Start(telemetry.StageSR).Stop()
	if dst.W != s.cfg.OutW || dst.H != s.cfg.OutH {
		panic(fmt.Sprintf("sr: dst %dx%d != configured output %dx%d", dst.W, dst.H, s.cfg.OutW, s.cfg.OutH))
	}
	a256 := s.boost256(lr.W)
	if lr.W == s.cfg.OutW && lr.H == s.cfg.OutH {
		// Same geometry: the head reduces to the sharpen alone.
		vmath.SharpenBytesInto(dst, lr, a256)
		return dst
	}
	s.sharp = scratchBytes(s.sharp, lr.W, lr.H)
	// Sharpen at LR cost (a quarter of the output pixels at 2×), then one
	// SWAR bilinear pass to display resolution.
	vmath.SharpenBytesInto(s.sharp, lr, a256)
	vmath.ResizeBilinearBytesInto(dst, s.sharp)
	return dst
}

// Upscale is the float-plane convenience wrapper: it shadows lr into a
// persistent byte plane, runs the byte head and converts back. The
// returned plane is pool-backed and owned by the caller, like
// SuperResolver's. Hot callers should hold byte planes and call
// UpscaleBytesInto directly to skip both conversions.
func (s *FastUpscaler) Upscale(lr *vmath.Plane) *vmath.Plane {
	s.lrB = scratchBytes(s.lrB, lr.W, lr.H).FromPlane(lr)
	s.outB = scratchBytes(s.outB, s.cfg.OutW, s.cfg.OutH)
	s.UpscaleBytesInto(s.outB, s.lrB)
	return s.outB.ToPlane(vmath.Get(s.cfg.OutW, s.cfg.OutH))
}
