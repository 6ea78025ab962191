package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// IDDeltaXOR is the wire discriminator for the lossless downlink delta:
// the XOR of the float64 bit patterns of the new and base vectors,
// byte-packed (see encodeXORDelta). It deliberately shares the value 0
// with IDNone — the two never travel in the same field (IDNone rides
// uplink codec negotiation, IDDeltaXOR rides the DeltaCodec byte next to
// a delta payload), and 0 is what a zero-valued gob field decodes to,
// which makes the lossless delta the default interpretation of any delta
// payload.
const IDDeltaXOR byte = 0

// Downlink describes how the aggregator compresses its broadcast
// (server -> worker) traffic: always as a delta against the receiver's
// last-acked model version, optionally through a lossy codec with
// server-side error feedback.
//
// A nil *Downlink means dense broadcasts (the pre-delta wire format).
// A Downlink with a nil Codec is the lossless mode: the delta is the XOR
// of the float64 bit patterns, byte-packed — reconstruction is
// bit-exact by construction (base XOR (cur XOR base) == cur, no floating
// point arithmetic involved), which is what lets the lockstep parity
// tests compare delta runs byte-for-byte against dense runs. A non-nil
// Codec quantizes or sparsifies the arithmetic delta cur − base; the
// encoding error stays on the server as a per-tier error-feedback
// residual (see Chain), so lossy broadcasts delay mass rather than drop
// it — the same argument EncodeDelta makes for the uplink.
type Downlink struct {
	// Codec is the lossy delta codec, or nil for the lossless XOR delta.
	Codec Codec
}

// Name returns the downlink spec, e.g. "delta", "delta+int8", or
// "delta+topk@0.10"; ParseDownlink(Name()) reconstructs the value.
func (d *Downlink) Name() string {
	if d == nil {
		return "dense"
	}
	if d.Codec == nil {
		return "delta"
	}
	return "delta+" + d.Codec.Name()
}

// Lossless reports whether every receiver reconstructs the broadcast
// vector bit-exactly.
func (d *Downlink) Lossless() bool { return d == nil || d.Codec == nil }

// ParseDownlink builds a downlink mode from its spec string: "dense" (or
// "none", or empty) for plain dense broadcasts, "delta" for the lossless
// XOR delta, or "delta+<codec>" (e.g. "delta+int8", "delta+topk@0.1")
// for a lossy delta. It is the -downlink-codec flag syntax of tifl-node.
func ParseDownlink(spec string) (*Downlink, error) {
	switch spec {
	case "", "dense", "none":
		return nil, nil
	case "delta":
		return &Downlink{}, nil
	}
	rest, ok := strings.CutPrefix(spec, "delta+")
	if !ok {
		return nil, fmt.Errorf("compress: unknown downlink spec %q", spec)
	}
	c, err := Parse(rest)
	if err != nil {
		return nil, fmt.Errorf("compress: bad downlink spec %q: %v", spec, err)
	}
	if c.ID() == IDNone {
		// "delta+none" would put IDNone in the DeltaCodec byte, where 0
		// already means the XOR delta; spell it "delta" instead.
		return nil, fmt.Errorf("compress: downlink spec %q: use \"delta\" for the lossless delta", spec)
	}
	return &Downlink{Codec: c}, nil
}

// Chain is one tier's server-side downlink state: the reconstruction base
// every up-to-date receiver in the tier currently holds, plus the
// error-feedback residual for lossy modes. The aggregator advances the
// chain exactly once per tier round — Encode is O(1) per round regardless
// of cohort size, the same shared-blob trick the fast wire encoding uses —
// and sends the resulting payload to every receiver whose last ack matches
// the chain's base; everyone else gets the post-round Base() dense.
//
// Chain state is a pure function of the sequence of broadcast vectors, so
// the simulated and socket runtimes, fed the same weights, produce
// byte-identical payloads and charge identical downlink bytes.
type Chain struct {
	d        *Downlink
	base     []float64
	residual []float64
}

// NewChain returns an empty chain for this downlink mode.
func (d *Downlink) NewChain() *Chain {
	if d == nil {
		return nil
	}
	return &Chain{d: d}
}

// HasBase reports whether the chain has adopted a base yet; until it has,
// the broadcast must go dense (first contact, or just after Reset).
func (c *Chain) HasBase() bool { return c != nil && c.base != nil }

// Base returns the chain's current reconstruction base — the vector every
// up-to-date receiver holds after the last Adopt or Encode. In lossless
// mode it is bit-identical to the last broadcast vector; in lossy mode it
// is the receivers' reconstruction, which is also what local training must
// start from so uplink deltas are computed against the right point. The
// returned slice is owned by the chain; callers must not mutate it.
func (c *Chain) Base() []float64 { return c.base }

// Adopt seeds the chain with a dense broadcast: cur is copied in as the
// base every receiver of that dense snapshot now holds.
func (c *Chain) Adopt(cur []float64) {
	c.base = append(c.base[:0], cur...)
}

// Encode advances the chain from its base to cur and returns the delta
// payload plus its wire codec ID. In lossless mode the payload is the
// byte-packed XOR of bit patterns and the new base is cur itself; in
// lossy mode the payload encodes cur − base (plus the carried residual),
// and the new base is base + decode(payload) — exactly what every
// receiver reconstructs. Callers must have checked HasBase.
func (c *Chain) Encode(cur []float64) (payload []byte, id byte) {
	if !c.HasBase() {
		panic("compress: Chain.Encode without a base")
	}
	if len(cur) != len(c.base) {
		panic(fmt.Sprintf("compress: Chain.Encode length %d != base length %d", len(cur), len(c.base)))
	}
	if c.d.Codec == nil {
		payload = encodeXORDelta(cur, c.base)
		c.base = append(c.base[:0], cur...)
		return payload, IDDeltaXOR
	}
	delta := make([]float64, len(cur))
	for i := range delta {
		delta[i] = cur[i] - c.base[i]
	}
	var rec []float64
	payload, rec, c.residual = EncodeDelta(c.d.Codec, delta, c.residual)
	for i := range c.base {
		c.base[i] += rec[i]
	}
	return payload, c.d.Codec.ID()
}

// Reset drops the base and residual; the next broadcast goes dense. Used
// on checkpoint resume, where no receiver's held version can be trusted.
func (c *Chain) Reset() {
	if c == nil {
		return
	}
	c.base = nil
	c.residual = nil
}

// ApplyDelta is the receiver side of Chain.Encode: it reconstructs the
// broadcast vector from a delta payload and the locally held base.
// IDDeltaXOR payloads XOR bit patterns (bit-exact); lossy payloads decode
// through the shared codec registry and add elementwise. base is not
// mutated; a fresh slice is returned.
func ApplyDelta(id byte, payload []byte, base []float64) ([]float64, error) {
	if id == IDDeltaXOR {
		return applyXORDelta(payload, base)
	}
	rec, err := DecodePayload(id, payload, len(base))
	if err != nil {
		return nil, err
	}
	// Every Decode returns a slice the caller owns, so the sum goes into
	// it rather than into a second vector.
	for i := range rec {
		rec[i] = base[i] + rec[i]
	}
	return rec, nil
}

// xorDeltaHeader is the fixed prefix of an XOR delta payload: the 8-byte
// little-endian vector length, then the mode byte.
const xorDeltaHeader = 9

// XOR delta modes. The encoder sends raw only when packing would be
// larger, so no payload exceeds 9+8n bytes.
const (
	xorPacked byte = 0 // width nibbles, then each word's low-order bytes
	xorRaw    byte = 1 // the 8n XOR bytes as they are
)

// xorWidth is how many low-order bytes hold x: 8 minus its leading zero
// bytes, 0 for an unchanged coordinate.
func xorWidth(x uint64) int { return 8 - bits.LeadingZeros64(x)>>3 }

// encodeXORDelta serializes cur relative to base as the XOR of their
// float64 bit patterns. Nearby model versions share sign, exponent and
// high mantissa bits, so each XOR word has leading zero bytes; the
// mantissa bytes below them are noise no entropy coder shrinks. After
// the header, the packed mode holds ⌈n/2⌉ bytes of 4-bit widths
// wᵢ = xorWidth(xᵢ) (even i in the low nibble, a zero pad nibble for odd
// n), then the wᵢ low-order bytes of each xᵢ, little-endian, in
// coordinate order; the raw mode holds the 8n XOR bytes. A first pass
// sizes the payload exactly, so it is the only allocation.
func encodeXORDelta(cur, base []float64) []byte {
	n, stored := len(cur), 0
	for i := range cur {
		stored += xorWidth(math.Float64bits(cur[i]) ^ math.Float64bits(base[i]))
	}
	mode, nibbles := xorPacked, (n+1)/2
	if nibbles+stored > 8*n {
		mode, nibbles, stored = xorRaw, 0, 8*n
	}
	payload := make([]byte, xorDeltaHeader+nibbles+stored)
	binary.LittleEndian.PutUint64(payload, uint64(n))
	payload[8] = mode
	widths, data := payload[xorDeltaHeader:xorDeltaHeader+nibbles], payload[xorDeltaHeader+nibbles:]
	off := 0
	for i := range cur {
		x := math.Float64bits(cur[i]) ^ math.Float64bits(base[i])
		w := 8
		if mode == xorPacked {
			w = xorWidth(x)
			widths[i>>1] |= byte(w) << (4 * (i & 1))
		}
		if off+8 <= len(data) {
			// The word's high zero bytes land where the next words go.
			binary.LittleEndian.PutUint64(data[off:], x)
		} else {
			for k := 0; k < w; k++ {
				data[off+k] = byte(x >> (8 * k))
			}
		}
		off += w
	}
	return payload
}

// applyXORDelta reconstructs the broadcast vector from an XOR delta
// payload and the held base. It accepts only what encodeXORDelta would
// have sent — exact length, widths at most 8, a zero pad nibble, a
// nonzero top byte in every stored word, and the mode the encoder picks
// — so every accepted payload re-encodes to itself. The length is
// checked before the returned vector, the only allocation, is made.
func applyXORDelta(payload []byte, base []float64) ([]float64, error) {
	if len(payload) < xorDeltaHeader {
		return nil, fmt.Errorf("compress: xor delta payload %d bytes, want >= %d", len(payload), xorDeltaHeader)
	}
	if n := binary.LittleEndian.Uint64(payload); n != uint64(len(base)) {
		return nil, fmt.Errorf("compress: xor delta for %d params, base has %d", n, len(base))
	}
	n, body, packed := len(base), payload[xorDeltaHeader:], payload[8] == xorPacked
	nibbles, stored := 0, 8*n
	switch {
	case packed:
		nibbles, stored = (n+1)/2, 0
		if len(body) < nibbles {
			return nil, fmt.Errorf("compress: xor delta %d bytes, want >= %d of widths", len(body), nibbles)
		}
		for _, b := range body[:nibbles] {
			if b&15 > 8 || b>>4 > 8 {
				return nil, fmt.Errorf("compress: xor delta width byte %#x", b)
			}
			stored += int(b&15 + b>>4)
		}
		if n&1 == 1 && body[nibbles-1]>>4 != 0 {
			return nil, fmt.Errorf("compress: xor delta pad nibble is nonzero")
		}
	case payload[8] != xorRaw:
		return nil, fmt.Errorf("compress: xor delta mode %d", payload[8])
	}
	if len(body) != nibbles+stored {
		return nil, fmt.Errorf("compress: xor delta body %d bytes, want %d", len(body), nibbles+stored)
	}
	widths, data := body[:nibbles], body[nibbles:]
	out := make([]float64, n)
	off, minimal := 0, 0
	for i := range out {
		w := 8
		if packed {
			w = int(widths[i>>1]>>(4*(i&1))) & 15
		}
		var x uint64
		if off+8 <= len(data) {
			x = binary.LittleEndian.Uint64(data[off:]) & (^uint64(0) >> (64 - 8*w))
		} else {
			for k := w - 1; k >= 0; k-- {
				x = x<<8 | uint64(data[off+k])
			}
		}
		if packed && xorWidth(x) != w {
			return nil, fmt.Errorf("compress: xor delta word %d stored in %d bytes, needs %d", i, w, xorWidth(x))
		}
		minimal += xorWidth(x)
		off += w
		out[i] = math.Float64frombits(math.Float64bits(base[i]) ^ x)
	}
	if raw := (n+1)/2+minimal > 8*n; raw == packed {
		return nil, fmt.Errorf("compress: xor delta mode %d, but the encoder picks the other", payload[8])
	}
	return out, nil
}
