package recovery

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"nerve/internal/edgecode"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// planeHash is the FNV-1a digest of p's geometry and float32 bit patterns.
func planeHash(p *vmath.Plane) string {
	h := fnv.New64a()
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(p.W))
	h.Write(b[:])
	binary.LittleEndian.PutUint32(b[:], uint32(p.H))
	h.Write(b[:])
	for _, v := range p.Pix {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenPartMask marks received pixels of a partial frame: 16-row slices,
// every third one lost, like a frame that lost a third of its packets.
func goldenPartMask(w, h int) *vmath.Plane {
	m := vmath.NewPlane(w, h)
	for y := 0; y < h; y++ {
		if (y/16)%3 == 1 {
			continue
		}
		for x := 0; x < w; x++ {
			m.Pix[y*w+x] = 1
		}
	}
	return m
}

// TestRecoverGolden pins the exact output of Recover at the play-lossy
// geometry (960×540 out, 480×270 work) on GamePlay content, for every mode
// and both kernel tiers. Each case runs a three-step recovery chain, each
// output feeding the next step as I_{t-1}, so the temporal history state
// and the flow decisions on recovered frames are covered too. The hashes
// change only when a displayed pixel changes; kernel rewrites must keep
// them.
//
// Recovery's float kernels are written as separate multiplies and adds; a
// compiler that fuses them into FMA (arm64, ppc64, s390x) rounds
// differently, so the pinned hashes hold on amd64 only.
func TestRecoverGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden hashes are amd64-only: recovery's float kernels are not fusion-free")
	}
	if testing.Short() {
		t.Skip("540p recovery chains in -short")
	}
	const w, h, start, steps = 960, 540, 30, 3
	g := video.NewGenerator(video.Categories()[3], 1) // GamePlay
	frames := make([]*vmath.Plane, start+steps)
	codes := make([]*edgecode.Code, start+steps)
	ext := edgecode.NewExtractor(0, 0)
	for k := start - 2; k < start+steps; k++ {
		frames[k] = g.Render(k, w, h)
		codes[k] = ext.Extract(frames[k])
	}
	mask := goldenPartMask(w, h)

	want := map[string]string{
		"float/hinted":       "e30fdad575d5ff7d",
		"float/extrapolated": "bc20dd04c5147aeb",
		"float/partial":      "6420184694f48395",
		"float/reuse":        "bccd79635f3b040c",
		"fixed/hinted":       "3b05de0efb08eb0a",
		"fixed/extrapolated": "09b078241bfa222c",
		"fixed/partial":      "ec6f84eb54beffce",
		"fixed/reuse":        "bccd79635f3b040c",
	}
	for _, fixed := range []bool{false, true} {
		for _, mode := range []string{"hinted", "extrapolated", "partial", "reuse"} {
			name := "float/" + mode
			if fixed {
				name = "fixed/" + mode
			}
			t.Run(name, func(t *testing.T) {
				r := New(Config{OutW: w, OutH: h, FixedPoint: fixed})
				prevPrev, prev := frames[start-2], frames[start-1]
				hs := fnv.New64a()
				for k := start; k < start+steps; k++ {
					in := Input{Prev: prev}
					switch mode {
					case "hinted":
						in.PrevPrev, in.PrevCode, in.CurCode = prevPrev, codes[k-1], codes[k]
					case "extrapolated":
						in.PrevPrev = prevPrev
					case "partial":
						in.PrevPrev, in.PrevCode, in.CurCode = prevPrev, codes[k-1], codes[k]
						in.Part, in.PartMask = frames[k], mask
					}
					out := r.Recover(in)
					hs.Write([]byte(planeHash(out)))
					prevPrev, prev = prev, out
				}
				got := fmt.Sprintf("%016x", hs.Sum64())
				if got != want[name] {
					t.Errorf("Recover chain hash %s, want %s", got, want[name])
				}
			})
		}
	}
}
