package codec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"os"
	"testing"

	"nerve/internal/vmath"
)

// goldenGOPFile is a 30-frame, one-GOP bitstream (one I-frame, 29
// P-frames) encoded on amd64 with goldenCfg from
// video.NewGenerator(video.Categories()[0], 7).Render(i, 96, 64), i < 30.
// Each frame is stored as a big-endian u32 length followed by its
// MarshalBinary payload (see appendGoldenFrame).
const goldenGOPFile = "testdata/golden_gop.bin"

var goldenCfg = Config{W: 96, H: 64, GOP: 30, TargetBitrate: 200e3}

// Hashes of the golden GOP, computed on amd64: the decoded pixels
// (float32 bits, little-endian, frame after frame) and the bitstream a
// fresh encoder produces from those decoded frames.
const (
	goldenDecodedSHA256  = "ee05bd6a3b5e7cb22e1804c3f79c374a8ae9be9140c3cfeac64ccd45b71cf76f"
	goldenReencodeSHA256 = "b2d37ae21e0c09885b03726c2c96b20e6a00c35479b691bcd04f6c122a193ce2"
)

// appendGoldenFrame appends ef to buf in the golden file's framing.
func appendGoldenFrame(t *testing.T, buf []byte, ef *EncodedFrame) []byte {
	t.Helper()
	b, err := ef.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(b)))
	return append(buf, b...)
}

func readGoldenGOP(t *testing.T) []*EncodedFrame {
	t.Helper()
	data, err := os.ReadFile(goldenGOPFile)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*EncodedFrame
	for len(data) > 0 {
		if len(data) < 4 {
			t.Fatalf("golden GOP: %d trailing bytes", len(data))
		}
		n := binary.BigEndian.Uint32(data)
		if uint32(len(data)-4) < n {
			t.Fatalf("golden GOP: frame %d truncated", len(frames))
		}
		ef := new(EncodedFrame)
		if err := ef.UnmarshalBinary(data[4 : 4+n]); err != nil {
			t.Fatalf("golden GOP: frame %d: %v", len(frames), err)
		}
		frames = append(frames, ef)
		data = data[4+n:]
	}
	return frames
}

func hashPlane(h hash.Hash, p *vmath.Plane) {
	buf := make([]byte, 0, 4*len(p.Pix))
	for _, v := range p.Pix {
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(v))
	}
	h.Write(buf)
}

// TestGoldenGOP pins the codec's arithmetic across architectures: decoding
// the committed GOP must rebuild the exact pixels the amd64 decoder did,
// and re-encoding them must give the exact bitstream the amd64 encoder
// did. A fused multiply-add anywhere in the transform or quantiser path
// (see TestNoFusedMultiplyAdd) changes the P-frame references and both
// hashes on arm64.
func TestGoldenGOP(t *testing.T) {
	frames := readGoldenGOP(t)
	if len(frames) != 30 || frames[0].Type != FrameI || frames[1].Type != FrameP {
		t.Fatalf("golden GOP: %d frames, want one I-frame then 29 P-frames", len(frames))
	}
	dec := NewDecoder(goldenCfg)
	decoded := make([]*vmath.Plane, len(frames))
	ph := sha256.New()
	for i, ef := range frames {
		res, err := dec.Decode(ef, nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !res.Complete() {
			t.Fatalf("frame %d: %d of %d rows decoded", i, res.RowsReceived, res.RowsTotal)
		}
		decoded[i] = res.Frame.Clone()
		hashPlane(ph, decoded[i])
		vmath.Put(res.Mask)
	}
	if got := hex.EncodeToString(ph.Sum(nil)); got != goldenDecodedSHA256 {
		t.Errorf("decoded pixels SHA-256 %s, want %s", got, goldenDecodedSHA256)
	}

	enc := NewEncoder(goldenCfg)
	var stream []byte
	for _, f := range decoded {
		stream = appendGoldenFrame(t, stream, enc.Encode(f))
	}
	sum := sha256.Sum256(stream)
	if got := hex.EncodeToString(sum[:]); got != goldenReencodeSHA256 {
		t.Errorf("re-encoded bitstream SHA-256 %s, want %s", got, goldenReencodeSHA256)
	}
}
