package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

func TestParseDownlink(t *testing.T) {
	for _, spec := range []string{"", "dense", "none"} {
		d, err := ParseDownlink(spec)
		if err != nil || d != nil {
			t.Fatalf("ParseDownlink(%q) = %v, %v; want nil, nil", spec, d, err)
		}
	}
	d, err := ParseDownlink("delta")
	if err != nil || d == nil || d.Codec != nil {
		t.Fatalf("ParseDownlink(delta) = %v, %v; want lossless", d, err)
	}
	if !d.Lossless() || d.Name() != "delta" {
		t.Fatalf("lossless delta: Lossless=%v Name=%q", d.Lossless(), d.Name())
	}
	d, err = ParseDownlink("delta+int8")
	if err != nil || d == nil || d.Codec == nil || d.Codec.ID() != IDInt8 {
		t.Fatalf("ParseDownlink(delta+int8) = %v, %v", d, err)
	}
	if d.Lossless() {
		t.Fatal("delta+int8 must not report lossless")
	}
	d, err = ParseDownlink("delta+topk@0.25")
	if err != nil || d == nil || d.Codec == nil || d.Codec.ID() != IDTopK {
		t.Fatalf("ParseDownlink(delta+topk@0.25) = %v, %v", d, err)
	}
	// Round trip through Name.
	for _, spec := range []string{"delta", "delta+int8", "delta+topk@0.1"} {
		d, err := ParseDownlink(spec)
		if err != nil {
			t.Fatalf("ParseDownlink(%q): %v", spec, err)
		}
		if got := d.Name(); got != spec {
			t.Fatalf("Name round trip: %q -> %q", spec, got)
		}
		if _, err := ParseDownlink(d.Name()); err != nil {
			t.Fatalf("re-parse %q: %v", d.Name(), err)
		}
	}
	if (*Downlink)(nil).Name() != "dense" {
		t.Fatalf("nil Downlink Name = %q, want dense", (*Downlink)(nil).Name())
	}
	for _, bad := range []string{"delta+", "delta+none", "delta+bogus", "xor", "delta+topk@7"} {
		if _, err := ParseDownlink(bad); err == nil {
			t.Fatalf("ParseDownlink(%q) accepted", bad)
		}
	}
}

// randWalk returns length-n vectors base and cur where cur is base plus a
// small per-coordinate step — the shape of consecutive model versions.
func randWalk(n int, rng *rand.Rand) (base, cur []float64) {
	base = make([]float64, n)
	cur = make([]float64, n)
	for i := range base {
		base[i] = rng.NormFloat64()
		cur[i] = base[i] + 0.01*rng.NormFloat64()
	}
	return base, cur
}

func TestXORDeltaBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	base, cur := randWalk(1000, rng)
	// Throw in the awkward bit patterns arithmetic deltas would mangle.
	cur[0] = math.Copysign(0, -1)
	cur[1] = math.SmallestNonzeroFloat64
	cur[2] = math.MaxFloat64
	cur[3] = base[3] // unchanged coordinate -> zero XOR word
	payload := encodeXORDelta(cur, base)
	got, err := applyXORDelta(payload, base)
	if err != nil {
		t.Fatalf("applyXORDelta: %v", err)
	}
	for i := range cur {
		if math.Float64bits(got[i]) != math.Float64bits(cur[i]) {
			t.Fatalf("coordinate %d: got %x want %x", i, math.Float64bits(got[i]), math.Float64bits(cur[i]))
		}
	}
	if len(payload) >= DenseBytes(len(cur)) {
		t.Fatalf("xor delta of a small step did not compress: %d >= %d", len(payload), DenseBytes(len(cur)))
	}
}

func TestXORDeltaRejectsBadPayloads(t *testing.T) {
	base := []float64{1, 2, 3}
	payload := encodeXORDelta([]float64{1.5, 2, 3}, base)
	if _, err := applyXORDelta(payload[:4], base); err == nil {
		t.Fatal("truncated header accepted")
	}
	if _, err := applyXORDelta(payload, base[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := applyXORDelta(payload[:len(payload)-3], base); err == nil {
		t.Fatal("truncated stream accepted")
	}
	corrupt := append([]byte(nil), payload...)
	corrupt[xorDeltaHeader] ^= 0xFF
	if _, err := applyXORDelta(corrupt, base); err == nil {
		t.Log("corrupt payload happened to decode; acceptable (the format has no checksum)")
	}
	// A payload built for a longer vector must not apply to a shorter base.
	long := encodeXORDelta(make([]float64, 5), make([]float64, 5))
	if _, err := applyXORDelta(long, base); err == nil {
		t.Fatal("wrong-length payload accepted")
	}
	if _, err := ApplyDelta(77, []byte{1, 2, 3}, base); err == nil {
		t.Fatal("unknown delta codec id accepted")
	}
}

// packXOR lays out a packed XOR delta payload for the words xs stored at
// the given widths, whether or not they are the minimal ones.
func packXOR(xs []uint64, ws []int) []byte {
	payload := binary.LittleEndian.AppendUint64(nil, uint64(len(xs)))
	payload = append(payload, xorPacked)
	widths := make([]byte, (len(xs)+1)/2)
	for i, w := range ws {
		widths[i/2] |= byte(w) << (4 * (i % 2))
	}
	payload = append(payload, widths...)
	for i, x := range xs {
		for k := 0; k < ws[i]; k++ {
			payload = append(payload, byte(x>>(8*k)))
		}
	}
	return payload
}

// rawXOR lays out a payload of the words xs as they are, under the given
// mode byte.
func rawXOR(mode byte, xs []uint64) []byte {
	payload := append(binary.LittleEndian.AppendUint64(nil, uint64(len(xs))), mode)
	for _, x := range xs {
		payload = binary.LittleEndian.AppendUint64(payload, x)
	}
	return payload
}

// nonCanonicalXOR returns payloads for a 3-vector of zeros that differ
// from what encodeXORDelta would send in exactly one rule each, plus the
// canonical one (which must decode) under "canonical".
func nonCanonicalXOR() map[string][]byte {
	xs := []uint64{0x12_3456, 0, 0x0100_0000_0000}
	ws := []int{3, 0, 6}
	canonical := packXOR(xs, ws)
	withByte := func(i int, b byte) []byte {
		p := append([]byte(nil), canonical...)
		p[i] = b
		return p
	}
	full := []uint64{1 << 63, 1 << 63, 1 << 63}
	return map[string][]byte{
		"canonical": canonical,
		// Each edit below adds the data bytes its new widths claim, so only
		// the rule it breaks can reject it.
		"width 9":                append(withByte(xorDeltaHeader, 0x09), make([]byte, 6)...),
		"width 15":               append(withByte(xorDeltaHeader, 0xF3), make([]byte, 15)...),
		"pad nibble":             append(withByte(xorDeltaHeader+1, 0x16), 1),
		"non-minimal":            packXOR(xs, []int{4, 0, 6}),
		"zero stored":            packXOR(xs, []int{3, 1, 6}),
		"mode 2":                 rawXOR(2, full),
		"raw, packable":          rawXOR(xorRaw, xs),
		"packed, raw is smaller": packXOR(full, []int{8, 8, 8}),
		"trailing byte":          append(append([]byte(nil), canonical...), 0),
	}
}

func TestXORDeltaRejectsNonCanonical(t *testing.T) {
	base := make([]float64, 3)
	for name, p := range nonCanonicalXOR() {
		_, err := applyXORDelta(p, base)
		if name == "canonical" {
			if err != nil {
				t.Fatalf("canonical payload rejected: %v", err)
			}
			if !bytes.Equal(p, refXORDelta([]float64{
				math.Float64frombits(0x12_3456), 0, math.Float64frombits(0x0100_0000_0000),
			}, base)) {
				t.Fatal("canonical payload differs from the reference encoder's")
			}
			continue
		}
		if err == nil {
			t.Errorf("%s payload accepted", name)
		}
	}
}

// refXORDelta is a deliberately naive encoder of the XOR delta format,
// written from the layout rather than from encodeXORDelta: it finds each
// width by scanning bytes down from the top, and lays the payload out
// with packXOR, or rawXOR when packing is larger than the 8n XOR bytes.
func refXORDelta(cur, base []float64) []byte {
	xs := make([]uint64, len(cur))
	ws := make([]int, len(cur))
	packed := (len(cur) + 1) / 2
	for i := range cur {
		xs[i] = math.Float64bits(cur[i]) ^ math.Float64bits(base[i])
		ws[i] = 8
		for ws[i] > 0 && xs[i]>>(8*(ws[i]-1)) == 0 {
			ws[i]--
		}
		packed += ws[i]
	}
	if packed > 8*len(cur) {
		return rawXOR(xorRaw, xs)
	}
	return packXOR(xs, ws)
}

// losslessLane is one receiver-plus-chain pair walking its own seeded
// random sequence of model versions.
type losslessLane struct {
	ch   *Chain
	rng  *rand.Rand
	cur  []float64
	held []float64 // the receiver's reconstruction
}

func newLosslessLane(n int, seed int64) *losslessLane {
	l := &losslessLane{ch: (&Downlink{}).NewChain(), rng: rand.New(rand.NewSource(seed))}
	l.cur = make([]float64, n)
	for i := range l.cur {
		l.cur[i] = l.rng.NormFloat64()
	}
	l.ch.Adopt(l.cur)
	l.held = append([]float64(nil), l.cur...)
	return l
}

// step advances the lane one broadcast: it moves cur, encodes it through
// the chain, and checks the payload against the reference encoder and
// the receiver's reconstruction against cur, bit for bit. It returns the
// payload for further abuse.
func (l *losslessLane) step() ([]byte, error) {
	for i := range l.cur {
		switch l.rng.Intn(4) {
		case 0: // unchanged coordinate: an all-zero XOR word
		case 1:
			l.cur[i] = -l.cur[i]
		default:
			l.cur[i] += 0.01 * l.rng.NormFloat64()
		}
	}
	n := len(l.cur)
	want := refXORDelta(l.cur, l.held)
	payload, id := l.ch.Encode(l.cur)
	if id != IDDeltaXOR {
		return nil, fmt.Errorf("n=%d: lossless chain emitted codec id %d", n, id)
	}
	if !bytes.Equal(payload, want) {
		return nil, fmt.Errorf("n=%d: chain payload (%d B) differs from the reference encoder's (%d B)", n, len(payload), len(want))
	}
	got, err := ApplyDelta(id, payload, l.held)
	if err != nil {
		return nil, fmt.Errorf("n=%d: ApplyDelta: %v", n, err)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(l.cur[i]) {
			return nil, fmt.Errorf("n=%d coord %d: reconstruction not bit-exact", n, i)
		}
	}
	l.held = got
	return payload, nil
}

// TestXORDeltaReferenceByteIdentity pins the encoder to the wire format:
// two chains interleaved step by step emit exactly the payloads the naive
// reference encoder builds, receivers reconstruct every step bit for bit,
// and truncated payloads are rejected.
func TestXORDeltaReferenceByteIdentity(t *testing.T) {
	// A zero-length vector never gets a chain base, so check it at the
	// payload level.
	if got, want := encodeXORDelta(nil, nil), refXORDelta(nil, nil); !bytes.Equal(got, want) {
		t.Fatalf("n=0: payload %x, want %x", got, want)
	}
	if out, err := applyXORDelta(encodeXORDelta(nil, nil), nil); err != nil || len(out) != 0 {
		t.Fatalf("n=0: applyXORDelta = %v, %v", out, err)
	}
	for _, n := range []int{1, 7, 300, 1899, 9000} {
		a, b := newLosslessLane(n, int64(n)), newLosslessLane(n+1, int64(n)+1)
		for s := 0; s < 6; s++ {
			pa, err := a.step()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.step(); err != nil {
				t.Fatal(err)
			}
			if _, err := ApplyDelta(IDDeltaXOR, pa[:len(pa)-1], a.held); err == nil {
				t.Fatalf("n=%d: truncated payload accepted", n)
			}
			corrupt := append([]byte(nil), pa...)
			corrupt[xorDeltaHeader+(len(corrupt)-xorDeltaHeader)/2] ^= 0x5A
			ApplyDelta(IDDeltaXOR, corrupt, a.held) // may decode to other values
		}
	}
}

// TestXORDeltaConcurrent runs many chains and receivers at once, with
// vector lengths differing across goroutines, each checked against the
// reference encoder. Run it under -race.
func TestXORDeltaConcurrent(t *testing.T) {
	const workers, steps = 8, 12
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := newLosslessLane(50+397*g, int64(100+g))
			for s := 0; s < steps; s++ {
				if _, err := l.step(); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// worstCaseVectors returns (base, cur) pairs of length n built to defeat
// the packing: every sign flipped, every exponent changed, NaNs with
// payload bits, signed zeros, subnormals, and nothing changed at all.
func worstCaseVectors(n int) map[string][2][]float64 {
	rng := rand.New(rand.NewSource(int64(n) + 42))
	mk := func(f func(i int) (b, c float64)) [2][]float64 {
		base, cur := make([]float64, n), make([]float64, n)
		for i := range base {
			base[i], cur[i] = f(i)
		}
		return [2][]float64{base, cur}
	}
	return map[string][2][]float64{
		"sign": mk(func(int) (float64, float64) { v := rng.NormFloat64(); return v, -v }),
		"exponent": mk(func(int) (float64, float64) {
			v := rng.NormFloat64()
			return v, v * 0x1p300
		}),
		"nan": mk(func(int) (float64, float64) {
			return rng.NormFloat64(), math.Float64frombits(0x7FF0_0000_0000_0001 | rng.Uint64()>>13 | rng.Uint64()&(1<<63))
		}),
		"zeros": mk(func(i int) (float64, float64) {
			if i%2 == 0 {
				return 0, math.Copysign(0, -1)
			}
			return math.Copysign(0, -1), 0
		}),
		"subnormal": mk(func(int) (float64, float64) {
			return math.Float64frombits(rng.Uint64() >> 12), math.Float64frombits(rng.Uint64() >> 12)
		}),
		"random": mk(func(int) (float64, float64) {
			return math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64())
		}),
		"unchanged": mk(func(int) (float64, float64) { v := rng.NormFloat64(); return v, v }),
	}
}

// TestXORDeltaWorstCaseSize checks the raw fallback's guarantee: whatever
// the vectors, a payload is at most 9+8n bytes, matches the reference
// encoder, and round-trips bit for bit.
func TestXORDeltaWorstCaseSize(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 1001} {
		for name, v := range worstCaseVectors(n) {
			base, cur := v[0], v[1]
			payload := encodeXORDelta(cur, base)
			if len(payload) > 9+8*n {
				t.Errorf("%s n=%d: payload %d bytes > 9+8n = %d", name, n, len(payload), 9+8*n)
			}
			if !bytes.Equal(payload, refXORDelta(cur, base)) {
				t.Errorf("%s n=%d: payload differs from the reference encoder's", name, n)
			}
			got, err := applyXORDelta(payload, base)
			if err != nil {
				t.Fatalf("%s n=%d: %v", name, n, err)
			}
			for i := range cur {
				if math.Float64bits(got[i]) != math.Float64bits(cur[i]) {
					t.Fatalf("%s n=%d coord %d: got %x want %x", name, n, i, math.Float64bits(got[i]), math.Float64bits(cur[i]))
				}
			}
		}
	}
	// Full-width words every time: only the raw mode fits in 9+8n.
	v := worstCaseVectors(5)["sign"]
	if p := encodeXORDelta(v[1], v[0]); p[8] != xorRaw || len(p) != 9+8*5 {
		t.Fatalf("all-sign-flip payload: mode %d, %d bytes; want raw, %d", p[8], len(p), 9+8*5)
	}
}

// TestXORDeltaSteadyStateAllocs pins the allocation count: a lossless
// Chain.Encode allocates only the payload it returns (sized exactly in a
// first pass), and ApplyDelta only the vector it returns.
func TestXORDeltaSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{1899, 20_000} {
		v0, v1 := benchWalkPair(n)
		ch := (&Downlink{}).NewChain()
		ch.Adopt(v0)
		vs := [2][]float64{v1, v0}
		i := 0
		if got := testing.AllocsPerRun(100, func() { ch.Encode(vs[i&1]); i++ }); got != 1 {
			t.Errorf("n=%d: Chain.Encode allocates %v times per call, want 1 (the payload)", n, got)
		}
		payload := encodeXORDelta(v1, v0)
		if cap(payload) != len(payload) {
			t.Errorf("n=%d: payload capacity %d, length %d: not sized exactly", n, cap(payload), len(payload))
		}
		got := testing.AllocsPerRun(100, func() {
			if _, err := ApplyDelta(IDDeltaXOR, payload, v0); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("n=%d: ApplyDelta allocates %v times per call, want 1 (the vector)", n, got)
		}
	}
}

// deflateBomb is a count claiming n params followed by a DEFLATE stream
// that inflates to size bytes of zeros: the hostile payload for a
// compressed delta format, and garbage to the packed one.
func deflateBomb(n, size int) []byte {
	var buf bytes.Buffer
	var hdr [xorDeltaHeader]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(n))
	buf.Write(hdr[:])
	zw, _ := flate.NewWriter(&buf, flate.BestSpeed)
	zw.Write(make([]byte, size))
	zw.Close()
	return buf.Bytes()
}

// TestXORDeltaRejectsDeflateBomb checks that garbage after a valid count
// is rejected without the receiver allocating more than the output
// vector would take: a deflate bomb (the hostile shape for a compressed
// delta format) and random streams of every length up to a few kB.
func TestXORDeltaRejectsDeflateBomb(t *testing.T) {
	const n, size = 64, 4 << 20
	bomb := deflateBomb(n, size)
	base := make([]float64, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ApplyDelta(IDDeltaXOR, bomb, base)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("%d-byte bomb inflating to %d bytes accepted for n=%d", len(bomb), size, n)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("rejecting a %d-byte bomb allocated %d bytes", len(bomb), grew)
	}
	rng := rand.New(rand.NewSource(6))
	var garbage [][]byte
	for size := 0; size < 4096; size += 1 + size/8 {
		g := binary.LittleEndian.AppendUint64(nil, n)
		for i := 0; i < size; i++ {
			g = append(g, byte(rng.Intn(256)))
		}
		garbage = append(garbage, g)
	}
	runtime.ReadMemStats(&before)
	for _, g := range garbage {
		if _, err := ApplyDelta(IDDeltaXOR, g, base); err == nil {
			t.Fatalf("%d bytes of garbage accepted for n=%d", len(g), n)
		}
	}
	runtime.ReadMemStats(&after)
	// An error value costs some bytes; the output vector is never built.
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(garbage)); per > 8*n {
		t.Fatalf("rejecting garbage allocated %d bytes per payload, more than the %d-byte output", per, 8*n)
	}
}

func TestChainLosslessRoundTrip(t *testing.T) {
	d, err := ParseDownlink("delta")
	if err != nil {
		t.Fatal(err)
	}
	ch := d.NewChain()
	if ch.HasBase() {
		t.Fatal("fresh chain claims a base")
	}
	rng := rand.New(rand.NewSource(4))
	held := make([]float64, 512) // the receiver's copy
	w := make([]float64, 512)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	ch.Adopt(w)
	copy(held, w) // dense first contact
	for step := 0; step < 5; step++ {
		for i := range w {
			w[i] += 0.005 * rng.NormFloat64()
		}
		payload, id := ch.Encode(w)
		if id != IDDeltaXOR {
			t.Fatalf("lossless chain emitted codec id %d", id)
		}
		got, err := ApplyDelta(id, payload, held)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for i := range w {
			if math.Float64bits(got[i]) != math.Float64bits(w[i]) {
				t.Fatalf("step %d coord %d: reconstruction not bit-exact", step, i)
			}
		}
		held = got
		// The chain's base must equal the broadcast vector bit-for-bit.
		for i, b := range ch.Base() {
			if math.Float64bits(b) != math.Float64bits(w[i]) {
				t.Fatalf("step %d: chain base diverged at %d", step, i)
			}
		}
	}
	ch.Reset()
	if ch.HasBase() {
		t.Fatal("Reset left a base behind")
	}
}

func TestChainLossyReceiverAgreement(t *testing.T) {
	for _, spec := range []string{"delta+int8", "delta+topk@0.25"} {
		d, err := ParseDownlink(spec)
		if err != nil {
			t.Fatal(err)
		}
		ch := d.NewChain()
		rng := rand.New(rand.NewSource(11))
		w := make([]float64, 300)
		for i := range w {
			w[i] = rng.NormFloat64()
		}
		ch.Adopt(w)
		held := append([]float64(nil), w...)
		for step := 0; step < 4; step++ {
			for i := range w {
				w[i] += 0.01 * rng.NormFloat64()
			}
			payload, id := ch.Encode(w)
			if id != d.Codec.ID() {
				t.Fatalf("%s: emitted id %d want %d", spec, id, d.Codec.ID())
			}
			got, err := ApplyDelta(id, payload, held)
			if err != nil {
				t.Fatalf("%s step %d: %v", spec, step, err)
			}
			// Server chain base and receiver reconstruction must agree
			// exactly: that is the invariant that makes the base usable
			// as the uplink reconstruction point.
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(ch.Base()[i]) {
					t.Fatalf("%s step %d coord %d: receiver %v != chain base %v",
						spec, step, i, got[i], ch.Base()[i])
				}
			}
			held = got
		}
	}
}

// TestChainLossyErrorFeedback checks that the per-tier residual carries
// dropped mass forward: broadcasting the same target twice through a
// top-k chain gets the base closer the second time than a residual-free
// encoder would.
func TestChainLossyErrorFeedback(t *testing.T) {
	d, err := ParseDownlink("delta+topk@0.10")
	if err != nil {
		t.Fatal(err)
	}
	ch := d.NewChain()
	rng := rand.New(rand.NewSource(3))
	start := make([]float64, 400)
	target := make([]float64, 400)
	for i := range start {
		start[i] = rng.NormFloat64()
		target[i] = start[i] + rng.NormFloat64()
	}
	ch.Adopt(start)
	errAt := func() float64 {
		var s float64
		for i, b := range ch.Base() {
			dv := target[i] - b
			s += dv * dv
		}
		return s
	}
	ch.Encode(target)
	first := errAt()
	ch.Encode(target)
	second := errAt()
	if second >= first {
		t.Fatalf("error feedback did not shrink reconstruction error: %v -> %v", first, second)
	}
}

func TestChainEncodePanicsWithoutBase(t *testing.T) {
	d := &Downlink{}
	ch := d.NewChain()
	defer func() {
		if recover() == nil {
			t.Fatal("Encode without base did not panic")
		}
	}()
	ch.Encode([]float64{1})
}

// downlinkBenchSizes are the vector lengths the downlink layer benches
// run at: the perfbench MLP (1,899 params, 15,192 dense bytes) and a
// ~100k-param model where the per-coordinate work dominates.
var downlinkBenchSizes = []int{1899, 100_000}

// benchWalkPair returns two consecutive model versions of length n: a
// and a plus a small step, the shape one tier round's broadcast has.
func benchWalkPair(n int) (a, b []float64) {
	return randWalk(n, rand.New(rand.NewSource(int64(n))))
}

// BenchmarkChainEncodeLossless is the server side of one lossless tier
// round: Chain.Encode alternates between two nearby versions, so every
// op packs the same small-step XOR stream. payload/dense is the payload
// size over the dense broadcast it replaces.
func BenchmarkChainEncodeLossless(b *testing.B) {
	for _, n := range downlinkBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			v0, v1 := benchWalkPair(n)
			ch := (&Downlink{}).NewChain()
			ch.Adopt(v0)
			vs := [2][]float64{v1, v0}
			b.SetBytes(int64(DenseBytes(n)))
			b.ReportAllocs()
			b.ResetTimer()
			var payload []byte
			for i := 0; i < b.N; i++ {
				payload, _ = ch.Encode(vs[i&1])
			}
			b.ReportMetric(float64(len(payload))/float64(DenseBytes(n)), "payload/dense")
		})
	}
}

// BenchmarkApplyDeltaLossless is the receiver side: one worker
// reconstructing a lossless broadcast from its held base.
func BenchmarkApplyDeltaLossless(b *testing.B) {
	for _, n := range downlinkBenchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			base, cur := benchWalkPair(n)
			ch := (&Downlink{}).NewChain()
			ch.Adopt(base)
			payload, id := ch.Encode(cur)
			b.SetBytes(int64(DenseBytes(n)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ApplyDelta(id, payload, base); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
