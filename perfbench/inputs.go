package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"
)

// All workload inputs are drawn here from the run seed. The program under
// test never sees the seed, only what these generators produce. Each
// generator has its own salt so that changing one input stream (say, the
// arrival schedule) leaves the others as they were.
const (
	saltLoss  = 0x6c6f7373 // "loss"
	saltPicks = 0x7069636b // "pick"
	saltLive  = 0x6c697665 // "live"
)

// slotClass is what the network did to one playout slot of play-lossy.
type slotClass uint8

const (
	slotDecoded slotClass = iota // every slice arrived
	slotPartial                  // a seeded subset of slices was dropped
	slotLost                     // nothing but the reliable code arrived
	numSlotClasses
)

var slotClassNames = [numSlotClasses]string{"decoded", "partial", "lost"}

func (c slotClass) String() string { return slotClassNames[c] }

// Loss pattern of play-lossy: in every block of blockSlots slots, a seeded
// choice of lostPerBlock slots is lost whole and partialPerBlock arrive in
// part — 20% and 10%, the loss rates at which the paper's recovery model
// is meant to keep playback smooth. Fixing the count per block keeps every
// stretch of a run at the same class mix, so the frame-time percentiles
// and the quality sample do not move with how many losses one seed drew.
const (
	blockSlots      = 10
	lostPerBlock    = 2
	partialPerBlock = 1
	// planSlots is the length of the loss plan; a run longer than this
	// wraps around it.
	planSlots = 1638 * blockSlots
)

// lossPlan is the seeded loss pattern of play-lossy: one class per slot
// and, for partial slots, a bit mask of the slices dropped.
type lossPlan struct {
	class []slotClass
	drop  []uint64
}

func newLossPlan(seed int64) lossPlan {
	rng := rand.New(rand.NewSource(seed ^ saltLoss))
	p := lossPlan{class: make([]slotClass, planSlots), drop: make([]uint64, planSlots)}
	for b := 0; b < planSlots; b += blockSlots {
		for i, off := range rng.Perm(blockSlots)[:lostPerBlock+partialPerBlock] {
			k := b + off
			if k == 0 {
				// The first slot decodes, so the session never starts
				// on a grey frame the recovery model has nothing to
				// warp; its block has one loss fewer.
				continue
			}
			if i < lostPerBlock {
				p.class[k] = slotLost
			} else {
				p.class[k] = slotPartial
				p.drop[k] = rng.Uint64()
			}
		}
	}
	return p
}

// slot returns the class and drop mask of playout slot k.
func (p lossPlan) slot(k int) (slotClass, uint64) {
	k %= len(p.class)
	return p.class[k], p.drop[k]
}

// received turns a partial slot's drop mask into a received-slice mask
// for a frame of n slices: slice i is dropped when bit i%64 is set. At least
// one slice is dropped and, when the frame has two or more, at least one
// arrives, so a partial slot is never a disguised decoded or lost one.
func received(drop uint64, n int) []bool {
	got := make([]bool, n)
	dropped := 0
	for i := range got {
		got[i] = drop&(1<<(uint(i)%64)) == 0
		if !got[i] {
			dropped++
		}
	}
	pick := int((drop >> 58) % uint64(n))
	switch {
	case dropped == 0:
		got[pick] = false
	case dropped == n && n > 1:
		got[pick] = true
	}
	return got
}

// pick is one origin-hot request: a chunk and a rung, uniform over both.
type pick struct{ chunk, rate int }

// pickCount is the length of the origin-hot pick sequence; the closed loop
// cycles through it.
const pickCount = 1 << 16

func newPicks(seed int64, chunks, rates int) []pick {
	rng := rand.New(rand.NewSource(seed ^ saltPicks))
	out := make([]pick, pickCount)
	for i := range out {
		out[i] = pick{chunk: rng.Intn(chunks), rate: rng.Intn(rates)}
	}
	return out
}

// arrival is one origin-live request: due is its send time from the start
// of measurement, back how many chunks behind the live edge it asks for
// and rate its rung. Arrival i goes to node i%2.
type arrival struct {
	due  time.Duration
	back int
	rate int
}

// newSchedule draws a Poisson arrival process of rate perSecond over span.
func newSchedule(seed int64, perSecond float64, span time.Duration, maxBack, rates int) []arrival {
	rng := rand.New(rand.NewSource(seed ^ saltLive))
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / perSecond
		due := time.Duration(t * float64(time.Second))
		if due >= span {
			return out
		}
		out = append(out, arrival{due: due, back: rng.Intn(maxBack + 1), rate: rng.Intn(rates)})
	}
}

// generatedInputs bundles every generator's output for one seed.
type generatedInputs struct {
	loss     lossPlan
	picks    []pick
	schedule []arrival
}

func generate(seed int64, span time.Duration) generatedInputs {
	return generatedInputs{
		loss:     newLossPlan(seed),
		picks:    newPicks(seed, hotChunks, numRates),
		schedule: newSchedule(seed, livePerSecond, span, liveMaxBack, numRates),
	}
}

// checkSeedDeterminism is the seed self-test every run performs: the same
// seed must reproduce every generated input exactly, and the next seed
// must change each of them.
func checkSeedDeterminism(seed int64, span time.Duration) error {
	a, b, c := generate(seed, span), generate(seed, span), generate(seed+1, span)
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("seed %d generated different inputs on two calls", seed)
	}
	for _, d := range []struct {
		name string
		x, y any
	}{
		{"loss plan", a.loss, c.loss},
		{"origin-hot picks", a.picks, c.picks},
		{"origin-live schedule", a.schedule, c.schedule},
	} {
		if reflect.DeepEqual(d.x, d.y) {
			return fmt.Errorf("seeds %d and %d generated the same %s", seed, seed+1, d.name)
		}
	}
	return nil
}
