package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"nerve/internal/video"
)

// TestPipelineGoldenLossy pins every displayed frame of a 30-slot pipelined
// session at the headline operating point (960×540 transmission, SR to
// 1920×1080, GamePlay content) whose schedule mixes complete frames,
// complete losses and partial losses. The digest covers each frame's
// class, index, geometry and float32 bit patterns, so it changes only when
// something the viewer sees changes; kernel rewrites must keep it.
//
// The recovery and SR float kernels are written as separate multiplies and
// adds; a compiler that fuses them into FMA (arm64, ppc64, s390x) rounds
// differently, so the pinned digests hold on amd64 only.
func TestPipelineGoldenLossy(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are amd64-only: the float kernels are not fusion-free")
	}
	if testing.Short() {
		t.Skip("30-slot 1080p session in -short")
	}
	const w, h, slots = 960, 540, 30
	srv, err := NewServer(ServerConfig{W: w, H: h, TargetBitrate: 6e6, GOP: 60, PacketPayload: 1200})
	if err != nil {
		t.Fatal(err)
	}
	g := video.NewGenerator(video.Categories()[3], 1) // GamePlay
	sfs := make([]*ServerFrame, slots)
	for i := range sfs {
		if sfs[i], err = srv.Process(g.Render(i, w, h)); err != nil {
			t.Fatal(err)
		}
	}
	// Slot schedule: losses start after the first intra frame has been
	// shown, and come both singly and back to back (a recovery chain).
	input := func(i int) Input {
		sf := sfs[i]
		in := Input{Encoded: sf.Encoded, Code: sf.Code}
		switch {
		case i == 3 || i == 9 || i == 10 || i == 11 || i == 17 || i == 24:
			in.Encoded = nil // complete loss
		case i == 5 || i == 13 || i == 20 || i == 21 || i == 27:
			recv := make([]bool, len(sf.Encoded.Slices))
			for j := range recv {
				recv[j] = j%3 != 1
			}
			recv[0] = true
			in.Received = recv
		}
		return in
	}

	// The fixed tier is the one every real client runs (TierAuto). The
	// float tier's 1080p session takes about 20 s, so its recovery is
	// pinned by recovery.TestRecoverGolden instead.
	const want = "c2167e1cb2a6a527"
	cli, err := NewClient(ClientConfig{
		W: w, H: h, OutW: 2 * w, OutH: 2 * h,
		EnableRecovery: true, EnableSR: true,
		Tier: TierFixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPipeline(cli)
	hs := fnv.New64a()
	var b [4]byte
	word := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		hs.Write(b[:])
	}
	shown := 0
	observe := func(res *FrameResult) {
		if res == nil {
			return
		}
		shown++
		word(uint32(res.Class))
		word(uint32(res.Index))
		word(uint32(res.Frame.W))
		word(uint32(res.Frame.H))
		for _, v := range res.Frame.Pix {
			word(math.Float32bits(v))
		}
	}
	for i := 0; i < slots; i++ {
		res, err := p.Push(input(i))
		if err != nil {
			t.Fatal(err)
		}
		observe(res)
	}
	observe(p.Flush())
	if shown != slots {
		t.Fatalf("session displayed %d frames, want %d", shown, slots)
	}
	if got := fmt.Sprintf("%016x", hs.Sum64()); got != want {
		t.Errorf("session digest %s, want %s", got, want)
	}
}
