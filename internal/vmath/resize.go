package vmath

import (
	"fmt"
	"math"
	"sync"

	"nerve/internal/par"
)

// Every resampler below parallelises over output-row bands on the shared
// worker pool (internal/par). Each output pixel is a pure function of the
// source plane and its own coordinates — no accumulation crosses rows — so
// the result is bit-identical for any pool size.
//
// Each resampler has an Into form that writes into a caller-supplied dst
// (whose W×H is the output geometry) and allocates nothing, plus the
// original allocating form as a thin wrapper. Into forms write every output
// pixel, so dst may come dirty from the pool; dst must not alias p.

// ResizeNearestInto resamples p to dst's size with nearest-neighbour
// sampling. dst must not alias p.
func ResizeNearestInto(dst, p *Plane) *Plane {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return dst
	}
	if p.W == 0 || p.H == 0 {
		dst.Fill(0)
		return dst
	}
	sx := float64(p.W) / float64(w)
	sy := float64(p.H) / float64(h)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			srcY := int((float64(y) + 0.5) * sy)
			if srcY >= p.H {
				srcY = p.H - 1
			}
			row := p.Pix[srcY*p.W:]
			for x := 0; x < w; x++ {
				srcX := int((float64(x) + 0.5) * sx)
				if srcX >= p.W {
					srcX = p.W - 1
				}
				dst.Pix[y*w+x] = row[srcX]
			}
		}
	})
	return dst
}

// ResizeNearest resamples p to w×h with nearest-neighbour sampling.
func ResizeNearest(p *Plane, w, h int) *Plane {
	return ResizeNearestInto(NewPlane(w, h), p)
}

// LerpTap is one axis sample of the pixel-centre bilinear lattice: two
// clamped source indices and the float32 fraction between them — exactly
// the values SampleBilinear would derive per pixel, hoisted out of the
// inner loop. Border taps carry I0 == I1, which makes the lerp collapse to
// the replicated sample for any fraction, reproducing AtClamp bit-for-bit.
type LerpTap struct {
	I0, I1 int32
	F      float32
}

// lerpTapCache caches per-axis bilinear taps keyed by (src, dst) extent —
// same idiom as the separable-convolution tap cache. Resize geometries are
// static per stream, so steady state never recomputes (or allocates) taps.
var lerpTapCache = struct {
	sync.RWMutex
	m map[[2]int][]LerpTap
}{m: map[[2]int][]LerpTap{}}

// LerpTaps returns the bilinear taps ResizeBilinearInto uses along one
// axis from src to dst samples, for kernels that fuse a bilinear resample
// into other per-pixel work. With the taps tx, ty of the two axes, output
// (x, y) is
//
//	top := v(tx.I0, ty.I0) + tx.F*(v(tx.I1, ty.I0)-v(tx.I0, ty.I0))
//	bot := v(tx.I0, ty.I1) + tx.F*(v(tx.I1, ty.I1)-v(tx.I0, ty.I1))
//	out := top + ty.F*(bot-top)
//
// evaluated in float32 in that order. The slice is cached and shared: it
// must not be modified.
func LerpTaps(src, dst int) []LerpTap {
	key := [2]int{src, dst}
	lerpTapCache.RLock()
	t := lerpTapCache.m[key]
	lerpTapCache.RUnlock()
	if t != nil {
		return t
	}
	t = make([]LerpTap, dst)
	s := float64(src) / float64(dst)
	for i := 0; i < dst; i++ {
		// The same float32 position SampleBilinear receives, floored and
		// fractioned exactly as it would.
		f := float32((float64(i)+0.5)*s - 0.5)
		i0 := int(math.Floor(float64(f)))
		fr := f - float32(i0)
		j0, j1 := i0, i0+1
		if j0 < 0 {
			j0 = 0
		} else if j0 >= src {
			j0 = src - 1
		}
		if j1 < 0 {
			j1 = 0
		} else if j1 >= src {
			j1 = src - 1
		}
		t[i] = LerpTap{I0: int32(j0), I1: int32(j1), F: fr}
	}
	lerpTapCache.Lock()
	lerpTapCache.m[key] = t
	lerpTapCache.Unlock()
	return t
}

// ResizeBilinearInto resamples p to dst's size with bilinear interpolation
// using pixel-centre alignment. dst must not alias p. Sample positions and
// lerp arithmetic are identical to per-pixel SampleBilinear calls (the
// taps are precomputed, the float32 operations are not reordered), so
// outputs are bit-identical to the historical formulation.
func ResizeBilinearInto(dst, p *Plane) *Plane {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return dst
	}
	if p.W == 0 || p.H == 0 {
		dst.Fill(0)
		return dst
	}
	yt := LerpTaps(p.H, h)
	if h > p.H {
		// Upscaling: output rows share source rows, so each source row is
		// lerped horizontally once, into pooled scratch, and output rows
		// blend two of those rows.
		rows := ResizeRowsBilinearInto(Get(w, p.H), p)
		par.ForRows(h, func(y0, y1 int) {
			for y := y0; y < y1; y++ {
				ty := yt[y]
				top := rows.Pix[int(ty.I0)*w : int(ty.I0)*w+w]
				bot := rows.Pix[int(ty.I1)*w : int(ty.I1)*w+w]
				drow := dst.Pix[y*w : y*w+w]
				for x := range drow {
					drow[x] = top[x] + ty.F*(bot[x]-top[x])
				}
			}
		})
		Put(rows)
		return dst
	}
	xt := LerpTaps(p.W, w)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			ty := yt[y]
			row0 := p.Pix[int(ty.I0)*p.W : int(ty.I0)*p.W+p.W]
			row1 := p.Pix[int(ty.I1)*p.W : int(ty.I1)*p.W+p.W]
			fy := ty.F
			drow := dst.Pix[y*w : y*w+w]
			for x := 0; x < w; x++ {
				tx := xt[x]
				v00 := row0[tx.I0]
				v10 := row0[tx.I1]
				v01 := row1[tx.I0]
				v11 := row1[tx.I1]
				top := v00 + tx.F*(v10-v00)
				bot := v01 + tx.F*(v11-v01)
				drow[x] = top + fy*(bot-top)
			}
		}
	})
	return dst
}

// ResizeRowsBilinearInto is the horizontal half of ResizeBilinearInto:
// it resamples every row of p to dst.W samples, so dst must be dst.W×p.H.
// Row y of dst holds the horizontal lerps of source row y that
// ResizeBilinearInto blends vertically (its top and bot values), bit for
// bit; kernels that fuse a bilinear upscale into other per-pixel work
// compute them once per source row instead of once per output row. dst
// must not alias p.
func ResizeRowsBilinearInto(dst, p *Plane) *Plane {
	if dst.H != p.H {
		panic(fmt.Sprintf("vmath: row resample needs %d rows, got %d", p.H, dst.H))
	}
	if dst.W == 0 || p.H == 0 {
		return dst
	}
	if p.W == 0 {
		dst.Fill(0)
		return dst
	}
	xt := LerpTaps(p.W, dst.W)
	par.ForRows(p.H, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			row := p.Pix[y*p.W : y*p.W+p.W]
			out := dst.Pix[y*dst.W : y*dst.W+dst.W]
			for x, tx := range xt {
				v0 := row[tx.I0]
				out[x] = v0 + tx.F*(row[tx.I1]-v0)
			}
		}
	})
	return dst
}

// ResizeBilinear resamples p to w×h with bilinear interpolation using
// pixel-centre alignment (the convention used by video scalers).
func ResizeBilinear(p *Plane, w, h int) *Plane {
	return ResizeBilinearInto(NewPlane(w, h), p)
}

// cubicWeight is the Catmull-Rom (a = -0.5) cubic convolution kernel.
func cubicWeight(t float64) float64 {
	const a = -0.5
	t = math.Abs(t)
	switch {
	case t <= 1:
		return (a+2)*t*t*t - (a+3)*t*t + 1
	case t < 2:
		return a*t*t*t - 5*a*t*t + 8*a*t - 4*a
	default:
		return 0
	}
}

// ResizeBicubicInto resamples p to dst's size with Catmull-Rom bicubic
// interpolation. dst must not alias p.
func ResizeBicubicInto(dst, p *Plane) *Plane {
	w, h := dst.W, dst.H
	if w == 0 || h == 0 {
		return dst
	}
	if p.W == 0 || p.H == 0 {
		dst.Fill(0)
		return dst
	}
	sx := float64(p.W) / float64(w)
	sy := float64(p.H) / float64(h)
	par.ForRows(h, func(yb0, yb1 int) {
		for y := yb0; y < yb1; y++ {
			fy := (float64(y)+0.5)*sy - 0.5
			y0 := int(math.Floor(fy))
			dy := fy - float64(y0)
			var wy [4]float64
			for j := 0; j < 4; j++ {
				wy[j] = cubicWeight(float64(j-1) - dy)
			}
			for x := 0; x < w; x++ {
				fx := (float64(x)+0.5)*sx - 0.5
				x0 := int(math.Floor(fx))
				dx := fx - float64(x0)
				var wx [4]float64
				for i := 0; i < 4; i++ {
					wx[i] = cubicWeight(float64(i-1) - dx)
				}
				var acc, wsum float64
				for j := 0; j < 4; j++ {
					for i := 0; i < 4; i++ {
						wgt := wx[i] * wy[j]
						acc += wgt * float64(p.AtClamp(x0+i-1, y0+j-1))
						wsum += wgt
					}
				}
				if wsum != 0 {
					acc /= wsum
				}
				dst.Pix[y*w+x] = float32(acc)
			}
		}
	})
	return dst
}

// ResizeBicubic resamples p to w×h with Catmull-Rom bicubic interpolation.
// This is the "Bicubic" upsampling baseline used in the SR comparisons.
func ResizeBicubic(p *Plane, w, h int) *Plane {
	return ResizeBicubicInto(NewPlane(w, h), p)
}

// DownsampleInto box-averages p by an integer factor in each dimension into
// dst, whose size must be exactly (p.W/fx)×(p.H/fy). dst must not alias p.
func DownsampleInto(dst, p *Plane, fx, fy int) *Plane {
	if fx < 1 || fy < 1 {
		panic("vmath: Downsample factor must be >= 1")
	}
	w := p.W / fx
	h := p.H / fy
	dst = ensure(dst, w, h)
	inv := 1.0 / float32(fx*fy)
	par.ForRows(h, func(y0, y1 int) {
		for y := y0; y < y1; y++ {
			for x := 0; x < w; x++ {
				var s float32
				for j := 0; j < fy; j++ {
					row := p.Pix[(y*fy+j)*p.W+x*fx:]
					for i := 0; i < fx; i++ {
						s += row[i]
					}
				}
				dst.Pix[y*w+x] = s * inv
			}
		}
	})
	return dst
}

// Downsample box-averages p by an integer factor in each dimension,
// producing a (W/fx)×(H/fy) plane. This matches the degradation model used
// to build the bitrate ladder (area-average downscale).
func Downsample(p *Plane, fx, fy int) *Plane {
	return DownsampleInto(NewPlane(p.W/fx, p.H/fy), p, fx, fy)
}

// PixelShuffleInto rearranges an r²-channel stack of planes (all w×h) into
// dst, which must be (w·r)×(h·r). dst must not alias any channel.
func PixelShuffleInto(dst *Plane, channels []*Plane, r int) *Plane {
	if len(channels) != r*r {
		panic("vmath: PixelShuffle needs r*r channels")
	}
	w, h := channels[0].W, channels[0].H
	for _, c := range channels {
		checkSameSize(channels[0], c)
	}
	dst = ensure(dst, w*r, h*r)
	for c, ch := range channels {
		ox := c % r
		oy := c / r
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst.Pix[(y*r+oy)*dst.W+(x*r+ox)] = ch.Pix[y*w+x]
			}
		}
	}
	return dst
}

// PixelShuffle rearranges an r²-channel stack of planes (all w×h) into one
// (w·r)×(h·r) plane, mirroring the sub-pixel convolution upsampler
// (Shi et al.) the paper uses for its 4× output stage. channels must have
// length r*r; channel index c maps to sub-pixel offset (c%r, c/r).
func PixelShuffle(channels []*Plane, r int) *Plane {
	if len(channels) != r*r {
		panic("vmath: PixelShuffle needs r*r channels")
	}
	return PixelShuffleInto(NewPlane(channels[0].W*r, channels[0].H*r), channels, r)
}

// PixelUnshuffleInto splits p (whose dimensions must be divisible by r)
// into the r*r caller-supplied planes in dst, each (W/r)×(H/r). No dst
// plane may alias p.
func PixelUnshuffleInto(dst []*Plane, p *Plane, r int) []*Plane {
	if p.W%r != 0 || p.H%r != 0 {
		panic("vmath: PixelUnshuffle dimensions not divisible by r")
	}
	if len(dst) != r*r {
		panic("vmath: PixelUnshuffle needs r*r destination planes")
	}
	w, h := p.W/r, p.H/r
	for c := range dst {
		dst[c] = ensure(dst[c], w, h)
		ox := c % r
		oy := c / r
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				dst[c].Pix[y*w+x] = p.Pix[(y*r+oy)*p.W+(x*r+ox)]
			}
		}
	}
	return dst
}

// PixelUnshuffle is the inverse of PixelShuffle: it splits p (whose
// dimensions must be divisible by r) into r*r planes of size (W/r)×(H/r).
func PixelUnshuffle(p *Plane, r int) []*Plane {
	if p.W%r != 0 || p.H%r != 0 {
		panic("vmath: PixelUnshuffle dimensions not divisible by r")
	}
	return PixelUnshuffleInto(make([]*Plane, r*r), p, r)
}
