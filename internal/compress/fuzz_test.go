package compress

import (
	"bytes"
	"math"
	"testing"
)

// Codec fuzzing mirrors internal/nn/fuzz_test.go: Decode must never panic
// on arbitrary bytes (truncations, corruptions, hostile headers), and any
// payload it accepts must describe a vector whose re-encoding decodes to
// the same values — decode∘encode is idempotent on the codec's image.

func fuzzSeeds(f *testing.F, c Codec) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(c.Encode(nil))
	f.Add(c.Encode([]float64{1, -2, math.Pi}))
	f.Add(c.Encode(testVector(200, 1)))
	long := c.Encode(testVector(2000, 2))
	f.Add(long)
	f.Add(long[:len(long)-3]) // truncated
	corrupt := append([]byte(nil), long...)
	corrupt[9] ^= 0x40 // damaged header
	f.Add(corrupt)
}

// fuzzRoundTrip is the shared property check for one accepted payload.
// re is the codec used for re-encoding: usually c itself, but top-k
// payloads can carry more nonzeros than c would keep (a peer with a larger
// fraction), so their re-encode uses fraction 1.
func fuzzRoundTrip(t *testing.T, c, reCodec Codec, data []byte, n int) {
	w, err := c.Decode(data, n)
	if err != nil {
		return // rejected input: the only requirement is "no panic"
	}
	if len(w) != n {
		t.Fatalf("accepted payload decoded to %d weights, want %d", len(w), n)
	}
	re := reCodec.Encode(w)
	back, err := reCodec.Decode(re, n)
	if err != nil {
		t.Fatalf("re-encoding of accepted payload rejected: %v", err)
	}
	for i := range w {
		if math.Abs(back[i]-w[i]) > quantizationSlack(c, w, i) {
			t.Fatalf("round trip diverged at %d: %v -> %v", i, w[i], back[i])
		}
	}
}

// quantizationSlack bounds how far one re-encode may move a coordinate:
// zero for lossless and top-k (already on the float32 grid with ≤k
// nonzeros), one quantization step for int8 (the decoded q·s values
// re-quantize against a slightly different scale).
func quantizationSlack(c Codec, w []float64, i int) float64 {
	if c.ID() != IDInt8 {
		return 0
	}
	maxAbs := 0.0
	for _, v := range w {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs/127 + maxAbs*1e-6
}

func FuzzNoneDecode(f *testing.F) {
	c := None{}
	fuzzSeeds(f, c)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) >= 8 {
			n = (len(data) - 8) / 8
		}
		fuzzRoundTrip(t, c, c, data, n)
	})
}

func FuzzInt8Decode(f *testing.F) {
	c := NewInt8(0)
	fuzzSeeds(f, c)
	f.Add(NewInt8(7).Encode(testVector(100, 3))) // odd chunk from a differently-configured peer
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, n := range []int{0, 1, 100, 2000} {
			fuzzRoundTrip(t, c, c, data, n)
		}
	})
}

func FuzzTopKDecode(f *testing.F) {
	c := NewTopK(0.1)
	fuzzSeeds(f, c)
	f.Add(NewTopK(1).Encode(testVector(100, 4)))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, n := range []int{0, 1, 100, 2000} {
			fuzzRoundTrip(t, c, TopK{Fraction: 1}, data, n)
		}
	})
}

// FuzzApplyDeltaXOR feeds arbitrary lossless delta payloads to a fixed
// base. ApplyDelta must never panic; a payload it accepts must decode to
// exactly len(base) values and be canonical: encoding the decoded vector
// against the base reproduces the payload byte for byte, so trailing
// data, padding and over-wide words never get through.
func FuzzApplyDeltaXOR(f *testing.F) {
	base := testVector(65, 5) // odd, so the last width byte has a pad nibble
	n := len(base)
	ch := (&Downlink{}).NewChain()
	ch.Adopt(base)
	cur := append([]float64(nil), base...)
	for step := 0; step < 3; step++ {
		cur[step*7] += 0.5
		cur[step*7+1] = math.Copysign(0, -1)
		// Each payload is against the chain's previous base, which is not
		// the fuzz base after the first step: those decode to something
		// else, which is still a valid payload.
		p, _ := ch.Encode(cur)
		f.Add(p)
	}
	valid := encodeXORDelta(cur, base)
	f.Add(valid)
	f.Add(encodeXORDelta(base, base)) // every word unchanged
	// The bad payloads TestXORDeltaRejectsBadPayloads uses.
	f.Add(valid[:4])                                                  // truncated header
	f.Add(encodeXORDelta(base[:n-1], base[:n-1]))                     // length mismatch
	f.Add(valid[:len(valid)-3])                                       // truncated stream
	f.Add(encodeXORDelta(make([]float64, n+5), make([]float64, n+5))) // longer vector
	corrupt := append([]byte(nil), valid...)
	corrupt[xorDeltaHeader] ^= 0xFF
	f.Add(corrupt)
	f.Add(deflateBomb(n, 1<<20))
	// One rule broken at a time, each with the data bytes its widths
	// claim: width nibbles 9 and 15 and a nonzero pad nibble; then a
	// non-minimal width, the wrong mode either way and an unknown mode.
	w := valid[xorDeltaHeader]
	last := xorDeltaHeader + (n+1)/2 - 1
	for _, e := range []struct {
		at    int
		b     byte
		extra int
	}{
		{xorDeltaHeader, w&0xF0 | 9, 9 - int(w&15)},
		{xorDeltaHeader, w&15 | 0xF0, 15 - int(w>>4)},
		{last, valid[last] | 0x10, 1},
	} {
		p := append([]byte(nil), valid...)
		p[e.at] = e.b
		f.Add(append(p, make([]byte, e.extra)...))
	}
	xs := make([]uint64, n)
	ws := make([]int, n)
	for i := range xs {
		xs[i] = math.Float64bits(cur[i]) ^ math.Float64bits(base[i])
		ws[i] = xorWidth(xs[i])
	}
	ws[n-1]++ // unchanged last word stored in one zero byte
	f.Add(packXOR(xs, ws))
	f.Add(rawXOR(xorRaw, xs)) // raw mode for words that pack smaller
	sign := make([]float64, n)
	for i := range sign {
		sign[i] = -base[i]
		xs[i], ws[i] = 1<<63, 8
	}
	f.Add(encodeXORDelta(sign, base)) // raw mode
	f.Add(packXOR(xs, ws))            // the same words packed, larger than raw
	f.Add(rawXOR(2, xs))              // an unknown mode
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ApplyDelta(IDDeltaXOR, data, base)
		if err != nil {
			return
		}
		if len(got) != n {
			t.Fatalf("accepted payload decoded to %d values, want %d", len(got), n)
		}
		if re := encodeXORDelta(got, base); !bytes.Equal(re, data) {
			t.Fatalf("accepted payload is not canonical: %x re-encodes to %x", data, re)
		}
	})
}
