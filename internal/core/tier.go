package core

import (
	"fmt"

	"nerve/internal/telemetry"
)

// Tier selects the client's kernel tier. It is fixed for the client's
// whole life: one SR head and one recovery tier, built once in NewClient.
type Tier int

const (
	// TierFloat pins the float32 kernels — the reference tier, and the
	// zero value of ClientConfig.Tier.
	TierFloat Tier = iota
	// TierFixed pins the integer/SWAR kernel tier.
	TierFixed
)

// TierAuto names the tier policy of the CLIs' default: it is the fixed
// tier. At the 540p→1080p operating point one core runs a float frame in
// ~394 ms and a fixed frame in ~17 ms (BENCH_codec.json), so only the fixed
// tier meets the 33 ms frame budget (DESIGN.md §10).
const TierAuto = TierFixed

func (t Tier) String() string {
	switch t {
	case TierFloat:
		return "float"
	case TierFixed:
		return "fixed"
	default:
		return fmt.Sprintf("Tier(%d)", int(t))
	}
}

// ParseTier maps the CLI spellings onto a Tier; "auto" names TierAuto.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "float":
		return TierFloat, nil
	case "fixed":
		return TierFixed, nil
	case "auto":
		return TierAuto, nil
	}
	return TierFloat, fmt.Errorf("core: unknown tier %q (want float, fixed or auto)", s)
}

// Per-session tier accounting (OBSERVABILITY.md): every displayed frame
// counts once under its client's tier.
var (
	cTierFloatFrames = telemetry.NewCounter("tier.float_frames")
	cTierFixedFrames = telemetry.NewCounter("tier.fixed_frames")
)
