package recovery

import (
	"math"
	"math/rand"
	"testing"

	"nerve/internal/par"
	"nerve/internal/vmath"
)

// inpaintRef is the direct formulation of inpaint: every Jacobi step
// recomputes each pull weight from guide and valid, and copies the step's
// result back over the holes. inpaint must match it bit for bit.
func inpaintRef(img, valid, guide *vmath.Plane, iters int) *vmath.Plane {
	w, h := img.W, img.H
	out := img.Clone()
	var holes []int
	for i := range out.Pix {
		if valid.Pix[i] < 0.5 {
			holes = append(holes, i)
		}
	}
	const selfWeight = 0.8
	next := vmath.NewPlane(w, h)
	for it := 0; it < iters; it++ {
		for _, i := range holes {
			x, y := i%w, i/w
			acc := selfWeight * img.Pix[i]
			wsum := float32(selfWeight)
			add := func(nx, ny int) {
				if nx < 0 || ny < 0 || nx >= w || ny >= h {
					return
				}
				j := ny*w + nx
				wgt := float32(1)
				if guide != nil {
					wgt = 1 - 0.85*guide.Pix[j]
					if wgt < 0.05 {
						wgt = 0.05
					}
				}
				if valid.Pix[j] >= 0.5 {
					wgt *= 2
				}
				acc += wgt * out.Pix[j]
				wsum += wgt
			}
			add(x-1, y)
			add(x+1, y)
			add(x, y-1)
			add(x, y+1)
			if wsum > 0 {
				next.Pix[i] = acc / wsum
			}
		}
		for _, i := range holes {
			out.Pix[i] = next.Pix[i]
		}
	}
	return out
}

// TestInpaintMatchesReference compares inpaint against inpaintRef bit for
// bit, with and without a guide, for hole patterns that touch all four
// borders and the corners, all-hole and hole-free planes, and plane
// shapes down to a single row and column. Hole counts past inpaintChunk
// split a step over several tasks; each case runs at 1 and 4 workers.
func TestInpaintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	patterns := []struct {
		name string
		hole func(x, y, w, h int) bool
	}{
		{"random", func(x, y, w, h int) bool { return rng.Intn(3) == 0 }},
		{"borders", func(x, y, w, h int) bool { return x < 2 || y < 2 || x >= w-2 || y >= h-2 }},
		{"all", func(x, y, w, h int) bool { return true }},
		{"none", func(x, y, w, h int) bool { return false }},
		{"blob", func(x, y, w, h int) bool {
			dx, dy := float64(x-w/3), float64(y-h/2)
			return dx*dx+dy*dy < float64(w*h)/8
		}},
	}
	sizes := [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {17, 11}, {160, 96}}
	for _, pat := range patterns {
		name, hole := pat.name, pat.hole
		for _, sz := range sizes {
			w, h := sz[0], sz[1]
			img := vmath.NewPlane(w, h)
			valid := vmath.NewPlane(w, h)
			guide := vmath.NewPlane(w, h)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					i := y*w + x
					img.Pix[i] = rng.Float32() * 255
					guide.Pix[i] = rng.Float32()
					if !hole(x, y, w, h) {
						valid.Pix[i] = 1
					}
				}
			}
			for _, g := range []*vmath.Plane{nil, guide} {
				want := inpaintRef(img, valid, g, 40)
				for _, workers := range []int{1, 4} {
					restore := par.SetWorkers(workers)
					got := inpaint(img, valid, g, 40)
					restore()
					for i := range want.Pix {
						if math.Float32bits(got.Pix[i]) != math.Float32bits(want.Pix[i]) {
							t.Fatalf("%s %dx%d guide=%v workers=%d: pixel (%d,%d) = %v, reference %v",
								name, w, h, g != nil, workers, i%w, i/w, got.Pix[i], want.Pix[i])
						}
					}
				}
			}
		}
	}
}
