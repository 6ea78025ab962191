package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
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

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

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
		t.Log("corrupt stream happened to inflate; acceptable (flate has no checksum)")
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

// freshXORDelta is the unpooled reference encoding of an XOR delta: the
// same wire format as encodeXORDelta, built with a brand-new BestSpeed
// flate writer per payload.
func freshXORDelta(cur, base []float64) []byte {
	var buf bytes.Buffer
	var hdr [xorDeltaHeader]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(cur)))
	buf.Write(hdr[:])
	zw, err := flate.NewWriter(&buf, flate.BestSpeed)
	if err != nil {
		panic(err)
	}
	raw := make([]byte, 8*len(cur))
	for i := range cur {
		binary.LittleEndian.PutUint64(raw[8*i:], math.Float64bits(cur[i])^math.Float64bits(base[i]))
	}
	zw.Write(raw)
	zw.Close()
	return buf.Bytes()
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
// the chain, and checks the payload against the unpooled reference and
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
	want := freshXORDelta(l.cur, l.held)
	payload, id := l.ch.Encode(l.cur)
	if id != IDDeltaXOR {
		return nil, fmt.Errorf("n=%d: lossless chain emitted codec id %d", n, id)
	}
	if !bytes.Equal(payload, want) {
		return nil, fmt.Errorf("n=%d: pooled payload (%d B) differs from a fresh writer's (%d B)", n, len(payload), len(want))
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

// TestXORDeltaPooledByteIdentity pins the pooled flate state to the wire
// format: two chains interleaved through the shared pools emit exactly
// the payloads fresh writers would, receivers reconstruct every step bit
// for bit, and a decode that fails partway through a corrupt or
// truncated stream leaves no state behind for the next payload.
func TestXORDeltaPooledByteIdentity(t *testing.T) {
	// A zero-length vector never gets a chain base, so check it at the
	// payload level.
	if got, want := encodeXORDelta(nil, nil), freshXORDelta(nil, nil); !bytes.Equal(got, want) {
		t.Fatalf("n=0: payload %x, want %x", got, want)
	}
	if out, err := applyXORDelta(encodeXORDelta(nil, nil), nil); err != nil || len(out) != 0 {
		t.Fatalf("n=0: applyXORDelta = %v, %v", out, err)
	}
	for _, n := range []int{1, 7, 300, 1899, 9000} { // 9000: a multi-block stream
		a, b := newLosslessLane(n, int64(n)), newLosslessLane(n+1, int64(n)+1)
		for s := 0; s < 6; s++ {
			pa, err := a.step()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := b.step(); err != nil {
				t.Fatal(err)
			}
			// Truncating the flate stream fails inside the inflater; the
			// pooled reader must come back clean.
			if _, err := ApplyDelta(IDDeltaXOR, pa[:len(pa)-1], a.held); err == nil {
				t.Fatalf("n=%d: truncated stream accepted", n)
			}
			corrupt := append([]byte(nil), pa...)
			corrupt[xorDeltaHeader+(len(corrupt)-xorDeltaHeader)/2] ^= 0x5A
			ApplyDelta(IDDeltaXOR, corrupt, a.held) // may or may not inflate
		}
	}
}

// TestXORDeltaPoolConcurrent runs many chains and receivers through the
// shared pools at once, with vector lengths differing across goroutines
// so pooled scratch is regrown and reused at every size. Run it under
// -race.
func TestXORDeltaPoolConcurrent(t *testing.T) {
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

// inflateAllocs reports what compress/flate itself allocates to inflate
// a payload's stream through an already-warm reader. The stdlib decoder
// builds fresh Huffman link tables for each dynamic block whose codes
// exceed 9 bits and cannot reuse them, so this is the floor for any
// flate-based decode.
func inflateAllocs(payload []byte, n int) float64 {
	var br bytes.Reader
	zr := flate.NewReader(&br)
	raw := make([]byte, 8*n)
	return testing.AllocsPerRun(100, func() {
		br.Reset(payload[xorDeltaHeader:])
		zr.(flate.Resetter).Reset(&br, nil)
		io.ReadFull(zr, raw)
	})
}

// TestXORDeltaSteadyStateAllocs guards the pooling: once warm, a lossless
// Chain.Encode allocates only the payload it returns, and ApplyDelta only
// the vector it returns on top of compress/flate's own per-block tables.
// AllocsPerRun averages, so an occasional pool refill after a GC does not
// count against the bound.
func TestXORDeltaSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	for _, n := range []int{1899, 20_000} { // one flate block, and several
		v0, v1 := benchWalkPair(n)
		ch := (&Downlink{}).NewChain()
		ch.Adopt(v0)
		vs := [2][]float64{v1, v0}
		i := 0
		if got := testing.AllocsPerRun(100, func() { ch.Encode(vs[i&1]); i++ }); got > 1 {
			t.Errorf("n=%d: Chain.Encode allocates %v times per call, want 1 (the payload)", n, got)
		}
		payload, id := encodeXORDelta(v1, v0), IDDeltaXOR
		floor := inflateAllocs(payload, n)
		got := testing.AllocsPerRun(100, func() {
			if _, err := ApplyDelta(id, payload, v0); err != nil {
				t.Fatal(err)
			}
		})
		if got > 1+floor {
			t.Errorf("n=%d: ApplyDelta allocates %v times per call, want <= 1 (the vector) + %v (flate's own)", n, got, floor)
		}
	}
}

// deflateBomb is an XOR delta payload claiming n params whose stream
// inflates to size bytes of zeros.
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

// TestXORDeltaRejectsDeflateBomb checks that a stream inflating far past
// the 8n bytes its header promises is rejected after at most 8n+1
// inflated bytes, without the receiver's heap growing with the bomb.
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
// ~100k-param model where the 8n-byte XOR stream dominates.
var downlinkBenchSizes = []int{1899, 100_000}

// benchWalkPair returns two consecutive model versions of length n: a
// and a plus a small step, the shape one tier round's broadcast has.
func benchWalkPair(n int) (a, b []float64) {
	return randWalk(n, rand.New(rand.NewSource(int64(n))))
}

// BenchmarkChainEncodeLossless is the server side of one lossless tier
// round: Chain.Encode alternates between two nearby versions, so every
// op deflates the same small-step XOR stream.
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
			for i := 0; i < b.N; i++ {
				ch.Encode(vs[i&1])
			}
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
