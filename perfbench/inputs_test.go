package main

import (
	"testing"
	"time"
)

func TestSeedDeterminism(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		if err := checkSeedDeterminism(seed, 10*time.Second); err != nil {
			t.Fatal(err)
		}
	}
}

func TestLossPlanShares(t *testing.T) {
	p := newLossPlan(3)
	if p.class[0] != slotDecoded {
		t.Fatal("slot 0 must decode")
	}
	for b := blockSlots; b < planSlots; b += blockSlots {
		var n [numSlotClasses]int
		for _, c := range p.class[b : b+blockSlots] {
			n[c]++
		}
		if n[slotLost] != lostPerBlock || n[slotPartial] != partialPerBlock {
			t.Fatalf("block at slot %d: %d lost, %d partial", b, n[slotLost], n[slotPartial])
		}
	}
}

func TestReceivedIsPartial(t *testing.T) {
	for _, drop := range []uint64{0, ^uint64(0), 0x5, 1 << 63} {
		for n := 1; n <= 70; n++ {
			got := received(drop, n)
			in := 0
			for _, r := range got {
				if r {
					in++
				}
			}
			if in == n || (n > 1 && in == 0) {
				t.Fatalf("drop=%#x n=%d: %d of %d slices received, want a strict subset", drop, n, in, n)
			}
		}
	}
}
