package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"nerve/internal/core"
	"nerve/internal/telemetry"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// play-lossy runs the paper's headline operating point: 960×540
// transmission super-resolved to 1920×1080 display, recovery and SR on,
// under the auto tier governor.
const (
	playTxW, playTxH   = 960, 540
	playOutW, playOutH = 1920, 1080
	// playGOP is the clip length and its intra period, so every loop of
	// the clip restarts on an intra frame.
	playGOP       = 60
	playBitrate   = 6e6
	playPayload   = 1200
	playContent   = 1 // content seed of the GamePlay clip
	frameBudgetMs = 1000.0 / 30
	// The quality sample: the displayed frame of every slot below
	// psnrSlots whose clip frame is a multiple of psnrEvery — fixed slots,
	// so a seed always samples the same frames, and 200 of them over 16
	// loops of the clip, so the loss pattern of one seed moves the mean
	// little. Only 12 clip frames need a 1080p reference. A run always
	// reaches psnrSlots: it measures at least minOps slots.
	psnrSlots, psnrEvery = minOps, 5
	psnrCount            = psnrSlots / psnrEvery
	// psnrFloorDB is the least mean quality the sample may show.
	psnrFloorDB = 25
)

// classShare is each slot class's nominal share of the slots. psnr_db
// weights the per-class mean PSNR by it, so the figure does not move with
// how many frames of each class one seed's sample happens to hold.
var classShare = [numSlotClasses]float64{
	slotDecoded: float64(blockSlots-lostPerBlock-partialPerBlock) / blockSlots,
	slotPartial: float64(partialPerBlock) / blockSlots,
	slotLost:    float64(lostPerBlock) / blockSlots,
}

// gamePlay is the content category of the benchmark clips: the most
// motion and the most new content per second of the ten categories.
var gamePlay = video.Categories()[3]

type playLossy struct {
	loss lossPlan

	clip []core.Input // one GOP, encoded once in setup
	pipe *core.Pipeline

	slot     int   // next slot to push
	slotOf   []int // slot of each frame the pipeline accepted
	returned int   // frames the pipeline has returned

	refs    map[int][]byte // 8-bit 1080p source of each sampled clip frame
	quality [numSlotClasses]samples
}

// pushSpan names the span of a push by its slot class.
var pushSpan = [numSlotClasses]string{
	"core.pipeline.push.decoded", "core.pipeline.push.partial", "core.pipeline.push.lost",
}

func newPlayLossy(loss lossPlan) *playLossy {
	return &playLossy{loss: loss}
}

func (p *playLossy) perFrame() bool { return true }
func (p *playLossy) close()         {}

// setup renders and encodes the clip and builds the client, as a user
// would pay for them before the first frame.
func (p *playLossy) setup(tr *tracer) (map[string]float64, error) {
	root := tr.newID()
	setupStart := time.Now()
	var render, process time.Duration
	g := video.NewGenerator(gamePlay, playContent)
	srv, err := core.NewServer(core.ServerConfig{
		W: playTxW, H: playTxH, TargetBitrate: playBitrate, GOP: playGOP, PacketPayload: playPayload,
	})
	if err != nil {
		return nil, err
	}
	clip := make([]core.Input, playGOP)
	for i := range clip {
		t0 := time.Now()
		frame := g.Render(i, playTxW, playTxH)
		t1 := time.Now()
		sf, err := srv.Process(frame)
		if err != nil {
			return nil, err
		}
		t2 := time.Now()
		tr.record(tr.newID(), root, int64(i), "video.render", t0, t1)
		tr.record(tr.newID(), root, int64(i), "core.server.process", t1, t2)
		render += t1.Sub(t0)
		process += t2.Sub(t1)
		// The client never reads the encoder's reconstruction; dropping
		// it keeps one plane per clip frame out of the heap.
		sf.Encoded.Recon = nil
		clip[i] = core.Input{Encoded: sf.Encoded, Code: sf.Code}
	}
	t0 := time.Now()
	cli, err := core.NewClient(core.ClientConfig{
		W: playTxW, H: playTxH, OutW: playOutW, OutH: playOutH,
		EnableRecovery: true, EnableSR: true, Tier: core.TierAuto,
	})
	if err != nil {
		return nil, err
	}
	pipe := core.NewPipeline(cli)
	newClient := time.Since(t0)
	tr.record(tr.newID(), root, 0, "core.new_client", t0, time.Now())
	tr.record(root, 0, 0, "bench.setup", setupStart, time.Now())

	p.clip, p.pipe = clip, pipe
	p.slot, p.slotOf, p.returned, p.quality = 0, nil, 0, [numSlotClasses]samples{}
	return map[string]float64{
		"video.render_ms":        ms(render),
		"core.server_process_ms": ms(process),
		"core.new_client_ms":     ms(newClient),
	}, nil
}

// input builds the program's input for slot k from the loss plan.
func (p *playLossy) input(k int) (core.Input, slotClass) {
	in := p.clip[k%len(p.clip)]
	class, drop := p.loss.slot(k)
	switch class {
	case slotLost:
		in.Encoded = nil
	case slotPartial:
		in.Received = received(drop, len(in.Encoded.Slices))
	}
	return in, class
}

// measure pushes slots back to back for the phase.
func (p *playLossy) measure(ph *phase) error {
	if p.refs == nil {
		// The references are the benchmark's own, not a cost of the
		// system, so they are rendered outside set-up and outside timing.
		p.refs = map[int][]byte{}
		g := video.NewGenerator(gamePlay, playContent)
		for i := 0; i < playGOP; i += psnrEvery {
			p.refs[i] = to8bit(g.Render(i, playOutW, playOutH))
		}
	}
	var byClass [numSlotClasses]samples
	start := time.Now()
	for time.Since(start) < ph.d || (len(ph.ops) < ph.minOps && time.Since(start) < 3*ph.d) {
		k := p.slot
		p.slot++
		in, class := p.input(k)
		id := ph.tr.newID()
		t0 := time.Now()
		res, err := p.pipe.Push(in)
		t1 := time.Now()
		ph.tr.record(id, 0, int64(k), pushSpan[class], t0, t1)
		lat := ms(t1.Sub(t0))
		byClass[class] = append(byClass[class], lat)
		ok := err == nil
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: slot %d: %v\n", k, err)
		} else {
			p.slotOf = append(p.slotOf, k)
			ok = res == nil || p.accept(res)
		}
		ph.ops = append(ph.ops, opRecord{done: time.Since(start), ms: lat, ok: ok})
	}
	ph.elapsed = time.Since(start)
	if len(ph.ops) < ph.minOps {
		return errTooFewOps(len(ph.ops), ph.elapsed)
	}
	if ph.tr == nil {
		return nil
	}
	for c, s := range byClass {
		name := slotClass(c).String()
		putQuantiles(ph.layers, "core.push_ms."+name, s, 90)
		ph.layers["core.deadline_miss_ratio."+name] = s.fractionAbove(frameBudgetMs)
	}
	ph.layers["core.overlap_ratio"] = telemetry.Default.PipelineSnapshot().OverlapRatio
	ph.layers["core.tier.float_frames"] = float64(telemetry.Default.Counter("tier.float_frames").Value())
	ph.layers["core.tier.probes"] = float64(telemetry.Default.Counter("tier.probes").Value())
	for _, st := range stageTimers {
		h := telemetry.Default.StageHistogram(st.stage)
		ph.layers[st.name+".calls"] = float64(h.Count())
		if h.Count() > 0 {
			ph.layers[st.name+".ms_per_call"] = ms(h.Sum()) / float64(h.Count())
		}
	}
	return nil
}

// expectedClass is how the client must label the frame of a slot class:
// a complete decode is super-resolved, a partial one concealed, a lost one
// recovered from the code.
var expectedClass = [numSlotClasses]core.FrameClass{
	slotDecoded: core.ClassSR,
	slotPartial: core.ClassPartial,
	slotLost:    core.ClassRecovered,
}

// accept checks one displayed frame — it belongs to the next accepted
// slot, is 1920×1080 and carries the class its slot calls for — scores it
// if the quality sample wants it, and returns it to the plane pool.
func (p *playLossy) accept(res *core.FrameResult) bool {
	defer vmath.Put(res.Frame)
	want := p.returned
	p.returned++
	if res.Index != want || want >= len(p.slotOf) {
		fmt.Fprintf(os.Stderr, "perfbench: frame index %d, want %d\n", res.Index, want)
		return false
	}
	k := p.slotOf[want]
	class, _ := p.loss.slot(k)
	if f := res.Frame; f == nil || f.W != playOutW || f.H != playOutH {
		fmt.Fprintf(os.Stderr, "perfbench: slot %d: frame is not %dx%d\n", k, playOutW, playOutH)
		return false
	}
	if res.Class != expectedClass[class] {
		fmt.Fprintf(os.Stderr, "perfbench: slot %d (%s) displayed as %s\n", k, class, res.Class)
		return false
	}
	if ref, ok := p.refs[k%playGOP]; ok && k < psnrSlots {
		p.quality[class] = append(p.quality[class], psnr(ref, res.Frame))
	}
	return true
}

// finish drains the pipeline, checks that every pushed slot was displayed,
// and reports the quality sample.
func (p *playLossy) finish(layers map[string]float64) (float64, error) {
	if last := p.pipe.Flush(); last != nil && !p.accept(last) {
		return 0, fmt.Errorf("last frame failed its checks")
	}
	if p.returned != len(p.slotOf) {
		return 0, fmt.Errorf("%d slots accepted, %d frames displayed", len(p.slotOf), p.returned)
	}
	n := 0
	for _, q := range p.quality {
		n += len(q)
	}
	if n != psnrCount {
		return 0, fmt.Errorf("quality sample holds %d of %d frames", n, psnrCount)
	}
	layers["recovery.psnr_db.lost"] = p.quality[slotLost].mean()
	layers["core.psnr_db.partial"] = p.quality[slotPartial].mean()
	layers["core.psnr_db.decoded"] = p.quality[slotDecoded].mean()
	var q float64
	for c, share := range classShare {
		if len(p.quality[c]) == 0 {
			return 0, fmt.Errorf("quality sample holds no %s frame", slotClass(c))
		}
		q += share * p.quality[c].mean()
	}
	if q < psnrFloorDB {
		return q, fmt.Errorf("PSNR %.2f dB under the %d dB floor", q, psnrFloorDB)
	}
	return q, nil
}

// to8bit quantises a plane to the 8-bit samples a display shows.
func to8bit(p *vmath.Plane) []byte {
	out := make([]byte, len(p.Pix))
	for i, v := range p.Pix {
		switch {
		case v <= 0:
			out[i] = 0
		case v >= 255:
			out[i] = 255
		default:
			out[i] = byte(v + 0.5)
		}
	}
	return out
}

// psnr is the PSNR in dB of plane b, quantised to 8 bits as a display
// shows it, against the 8-bit reference a.
func psnr(a []byte, b *vmath.Plane) float64 {
	var sse float64
	for i, v := range b.Pix {
		var q byte
		switch {
		case v <= 0:
		case v >= 255:
			q = 255
		default:
			q = byte(v + 0.5)
		}
		d := float64(a[i]) - float64(q)
		sse += d * d
	}
	if sse == 0 {
		return 100
	}
	return 10 * math.Log10(255*255*float64(len(a))/sse)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
