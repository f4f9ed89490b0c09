package codec

import "math"

// Basis-matrix reference transforms: the orthonormal DCT-II by direct
// matrix multiplication. They are the oracles of the AAN differential
// tests (dct_diff_test.go) and the *Ref benchmarks, and live in a test file
// because no runtime path uses them.

// dctBasis[u][x] = C(u)·cos((2x+1)uπ/16) — the 1-D orthonormal DCT-II
// basis, used by the reference transforms.
var dctBasis = makeDCTBasis()

func makeDCTBasis() (b [blockSize][blockSize]float32) {
	for u := 0; u < blockSize; u++ {
		c := math.Sqrt(2.0 / blockSize)
		if u == 0 {
			c = math.Sqrt(1.0 / blockSize)
		}
		for x := 0; x < blockSize; x++ {
			b[u][x] = float32(c * math.Cos(float64(2*x+1)*float64(u)*math.Pi/(2*blockSize)))
		}
	}
	return b
}

// fdct8Ref computes the 2-D forward DCT of an 8×8 block (row-major in/out)
// by direct basis-matrix multiplication: the unscaled orthonormal DCT-II.
// It is the differential-test oracle for the AAN fast path.
func fdct8Ref(in, out *[64]float32) {
	var tmp [64]float32
	// Rows.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float32
			for x := 0; x < 8; x++ {
				s += in[y*8+x] * dctBasis[u][x]
			}
			tmp[y*8+u] = s
		}
	}
	// Columns.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float32
			for y := 0; y < 8; y++ {
				s += tmp[y*8+u] * dctBasis[v][y]
			}
			out[v*8+u] = s
		}
	}
}

// idct8Ref computes the 2-D inverse DCT of an 8×8 coefficient block by
// direct basis-matrix multiplication (the oracle twin of fdct8Ref).
func idct8Ref(in, out *[64]float32) {
	var tmp [64]float32
	// Columns.
	for u := 0; u < 8; u++ {
		for y := 0; y < 8; y++ {
			var s float32
			for v := 0; v < 8; v++ {
				s += in[v*8+u] * dctBasis[v][y]
			}
			tmp[y*8+u] = s
		}
	}
	// Rows.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			var s float32
			for u := 0; u < 8; u++ {
				s += tmp[y*8+u] * dctBasis[u][x]
			}
			out[y*8+x] = s
		}
	}
}

// refTransforms returns the basis-matrix transform set (unit scales).
func refTransforms() transformSet {
	var one [64]float32
	for i := range one {
		one[i] = 1
	}
	return newTransformSet(fdct8Ref, idct8Ref, one, one)
}
