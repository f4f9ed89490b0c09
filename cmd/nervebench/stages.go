package main

import (
	"fmt"
	"io"
	"text/tabwriter"

	"nerve/internal/core"
	"nerve/internal/telemetry"
	"nerve/internal/video"
	"nerve/internal/vmath"
)

// runStages drives one pipelined client session at the headline operating
// point — 960×540 transmission, 1920×1080 display, one complete loss in
// five — and dumps where the frame time went: per-stage p50/p99 from the
// stage timers, plus the pipeline's busy vs critical-path split and the
// overlap ratio the stage graph actually won. tier picks the kernel tier
// (-tier float|fixed|auto, where auto is fixed); the report ends with the
// per-tier frame counts.
func runStages(w io.Writer, quick bool, seed int64, tier core.Tier) error {
	frames := 150
	if quick {
		frames = 30
	}
	const txW, txH = 960, 540
	srv, err := core.NewServer(core.ServerConfig{W: txW, H: txH, TargetBitrate: 6e6, GOP: 60, PacketPayload: 1200})
	if err != nil {
		return err
	}
	cli, err := core.NewClient(core.ClientConfig{
		W: txW, H: txH, OutW: 1920, OutH: 1080,
		EnableRecovery: true, EnableSR: true, Tier: tier,
	})
	if err != nil {
		return err
	}

	telemetry.Enable(true)
	defer telemetry.Enable(false)
	telemetry.Default.Reset()

	// Encode the whole stream first: the client is the system under
	// measurement, and a back-to-back push loop keeps the overlap figure
	// honest — enhance can only hide under the next frame's ingest, not
	// under server-side encode time.
	g := video.NewGenerator(video.Categories()[3], seed)
	inputs := make([]core.Input, frames)
	for i := range inputs {
		sf, err := srv.Process(g.Render(i, txW, txH))
		if err != nil {
			return err
		}
		inputs[i] = core.Input{Encoded: sf.Encoded, Code: sf.Code}
		if i%5 == 2 {
			inputs[i].Encoded = nil // complete loss → recovery path
		}
	}

	p := core.NewPipeline(cli)
	push := func(in core.Input) error {
		res, err := p.Push(in)
		if err != nil {
			return err
		}
		if res != nil {
			vmath.Put(res.Frame)
		}
		return nil
	}
	// Warm plane pools, tap caches and temporal state across all three
	// input paths before the measured window — this is a steady-state
	// diagnosis, and frame 0 pays one-time costs no later frame pays.
	const warm = 5
	for _, in := range inputs[:warm] {
		if err := push(in); err != nil {
			return err
		}
	}
	telemetry.Default.Reset()
	for _, in := range inputs[warm:] {
		if err := push(in); err != nil {
			return err
		}
	}
	if last := p.Flush(); last != nil {
		vmath.Put(last.Frame)
	}

	s := telemetry.Default.Snapshot()
	fmt.Fprintf(w, "pipelined 960x540 -> 1920x1080 client, tier %s, %d frames after %d warm (1-in-5 loss)\n\n", tier, frames-warm, warm)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "stage\tcount\tp50 ms\tp99 ms\tmax ms")
	for _, st := range s.Stages {
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\t%d\t%.2f\t%.2f\t%.2f\n", st.Stage, st.Count, st.P50Ms, st.P99Ms, st.MaxMs)
	}
	fmt.Fprintf(tw, "\nframe (busy)\t%d\t%.2f\t%.2f\t\n", s.Pipeline.Frames, s.Pipeline.BusyP50Ms, s.Pipeline.BusyP99Ms)
	fmt.Fprintf(tw, "frame (critical)\t%d\t%.2f\t%.2f\t\n", s.Pipeline.Frames, s.Pipeline.CriticalP50Ms, s.Pipeline.CriticalP99Ms)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\noverlap ratio: %.2fx (busy time per unit of critical-path time; 1.00 = sequential)\n", s.Pipeline.OverlapRatio)
	fmt.Fprintf(w, "deadline: %d/%d frames over the %.1f ms budget\n",
		s.Deadline.Overruns, s.Deadline.Frames, s.Deadline.BudgetMs)
	fmt.Fprintf(w, "tiers: %d float / %d fixed frames\n",
		s.Counters["tier.float_frames"], s.Counters["tier.fixed_frames"])
	return nil
}
