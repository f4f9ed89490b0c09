package core

import (
	"testing"

	"nerve/internal/telemetry"
	"nerve/internal/vmath"
)

// TestTierParseRoundTrip pins the CLI spellings: float and fixed round-trip
// through String, and "auto" parses to TierAuto, which is the fixed tier.
func TestTierParseRoundTrip(t *testing.T) {
	for _, tier := range []Tier{TierFloat, TierFixed} {
		got, err := ParseTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseTier(%q) = (%v, %v), want (%v, nil)", tier.String(), got, err, tier)
		}
	}
	if got, err := ParseTier("auto"); err != nil || got != TierFixed {
		t.Errorf("ParseTier(\"auto\") = (%v, %v), want (fixed, nil)", got, err)
	}
	if _, err := ParseTier("fast"); err == nil {
		t.Error("ParseTier accepted an unknown tier")
	}
}

// TestTierAutoIsFixed: a client configured with TierAuto runs the fixed
// tier for its whole life — every displayed frame bit-identical to a
// TierFixed client's over a stream that walks the decoded, lost and partial
// paths, with SR on.
func TestTierAutoIsFixed(t *testing.T) {
	const frames = 14
	sfs := pipelineServerFrames(t, frames)
	cfg := func(tier Tier) ClientConfig {
		return ClientConfig{
			W: tw, H: th, OutW: tw * 2, OutH: th * 2,
			EnableRecovery: true, EnableSR: true,
			Tier: tier,
		}
	}
	fixed := runSequential(t, cfg(TierFixed), sfs)
	auto := runSequential(t, cfg(TierAuto), sfs)
	for i := range fixed {
		if auto[i].Class != fixed[i].Class {
			t.Fatalf("frame %d: auto class %v, fixed class %v", i, auto[i].Class, fixed[i].Class)
		}
		a, b := fixed[i].Frame, auto[i].Frame
		for j := range a.Pix {
			if a.Pix[j] != b.Pix[j] {
				t.Fatalf("frame %d: pixel %d differs (fixed %v, auto %v)", i, j, a.Pix[j], b.Pix[j])
			}
		}
	}
}

// TestTierAutoFrameAccounting: the tier counters count every displayed
// frame once under the client's tier — through Next and through the
// Pipeline join and Flush alike — and a TierAuto client's frames all land
// under tier.fixed_frames.
func TestTierAutoFrameAccounting(t *testing.T) {
	const frames = 12
	sfs := pipelineServerFrames(t, frames)
	defer telemetry.Enable(telemetry.Enabled())
	telemetry.Enable(true)
	cfg := ClientConfig{
		W: tw, H: th, OutW: tw * 2, OutH: th * 2,
		EnableRecovery: true, EnableSR: true,
		Tier: TierAuto,
	}
	float0, fixed0 := cTierFloatFrames.Value(), cTierFixedFrames.Value()
	for _, res := range append(runSequential(t, cfg, sfs), runPipelined(t, cfg, sfs)...) {
		vmath.Put(res.Frame)
	}
	if d := cTierFloatFrames.Value() - float0; d != 0 {
		t.Errorf("tier.float_frames moved by %d, want 0", d)
	}
	if d := cTierFixedFrames.Value() - fixed0; d != 2*frames {
		t.Errorf("tier.fixed_frames moved by %d, want %d", d, 2*frames)
	}
}
