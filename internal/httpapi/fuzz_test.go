package httpapi

// Fuzz tests for the wire decoding: whatever bytes arrive, the decoder
// must fail cleanly (never panic), and anything it accepts must survive a
// marshal→unmarshal round trip unchanged — the property the determinism
// contract leans on, since a seeded query's response is compared
// bit-for-bit after a JSON round trip.

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func FuzzDecodeCreateSessionRequest(f *testing.F) {
	f.Add(`{"n":4,"edges":[[0,1],[2,3]],"budget":1}`)
	f.Add(`{"edge_list":"n 3\n0 1\n","budget":0.5,"accountant":"advanced","delta":1e-9}`)
	f.Add(`{"n":-1}`)
	f.Add(`{"budget":1,"edges":[[0,0]]}`)
	f.Add(`{"n":2,"budget":1,"unknown":true}`)
	f.Add(`not json at all`)
	f.Add(`{"n":1,"budget":1}{"trailing":1}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var req CreateSessionRequest
		if err := decodeStrict(strings.NewReader(raw), &req); err != nil {
			return // rejected cleanly
		}
		// Accepted: graph construction must not panic either. A small
		// vertex bound keeps fuzzed headers from claiming gigabytes.
		if err := sanitizeTenant(req.Tenant); err != nil {
			return
		}
		_, _ = buildGraph(&req, 1<<12)
	})
}

func FuzzDecodeQueryRequest(f *testing.F) {
	f.Add(`{"op":"cc","epsilon":0.5,"seed":7}`)
	f.Add(`{"op":"sf","epsilon":1e-300}`)
	f.Add(`{"op":"cc-known-n","epsilon":-1}`)
	f.Add(`{"op":"cc","epsilon":0.1,"seed":18446744073709551615}`)
	f.Add(`{"epsilon":null}`)
	f.Add(`[]`)
	f.Fuzz(func(t *testing.T, raw string) {
		var req QueryRequest
		if err := decodeStrict(strings.NewReader(raw), &req); err != nil {
			return
		}
		_, _, _ = parseOp(req.Op)
		// Round trip: an accepted request re-encodes to an equivalent one.
		out, err := json.Marshal(req)
		if err != nil {
			// Go's encoder rejects only non-finite floats here; those came
			// from the wire, so the decoder accepted what the encoder
			// cannot represent — acceptable (serve validation rejects
			// non-finite ε before any spend), but nothing to round-trip.
			if math.IsNaN(req.Epsilon) || math.IsInf(req.Epsilon, 0) {
				return
			}
			t.Fatalf("re-encoding accepted request: %v", err)
		}
		var back QueryRequest
		if err := decodeStrict(bytes.NewReader(out), &back); err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if back.Op != req.Op || back.Seed != req.Seed ||
			math.Float64bits(back.Epsilon) != math.Float64bits(req.Epsilon) {
			t.Fatalf("round trip changed the request: %+v -> %+v", req, back)
		}
	})
}

func FuzzDecodeBatchRequest(f *testing.F) {
	f.Add(`{"queries":[{"op":"cc","epsilon":0.5}]}`)
	f.Add(`{"queries":[]}`)
	f.Add(`{"queries":[{"op":"cc","epsilon":0.1},{"op":"sf","epsilon":0.2,"seed":3}]}`)
	f.Add(`{"queries":null}`)
	f.Fuzz(func(t *testing.T, raw string) {
		var req BatchRequest
		if err := decodeStrict(strings.NewReader(raw), &req); err != nil {
			return
		}
		for _, q := range req.Queries {
			_, _, _ = parseOp(q.Op)
		}
	})
}

// FuzzQueryResponseRoundTrip: every finite response the server could emit
// survives the JSON wire bit-for-bit — the encoding half of the
// determinism contract.
func FuzzQueryResponseRoundTrip(f *testing.F) {
	f.Add(3.75, 2.0, 4.0, 9.25, 0.5)
	f.Add(-0.0, 1.0, 2.0, 0.0, 0.25)
	f.Add(1e-308, 5e300, 1e17, -7.1, 1e-9)
	f.Fuzz(func(t *testing.T, value, deltaHat, scale, nhat, eps float64) {
		in := QueryResponse{Value: value, DeltaHat: deltaHat, NoiseScale: scale, NHat: nhat, Epsilon: eps, Op: "cc"}
		for _, v := range []float64{value, deltaHat, scale, nhat, eps} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // not representable in JSON; the mechanism never emits these
			}
		}
		raw, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		var out QueryResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.Value) != math.Float64bits(in.Value) ||
			math.Float64bits(out.DeltaHat) != math.Float64bits(in.DeltaHat) ||
			math.Float64bits(out.NoiseScale) != math.Float64bits(in.NoiseScale) ||
			math.Float64bits(out.Epsilon) != math.Float64bits(in.Epsilon) {
			t.Fatalf("JSON round trip moved bits: %+v -> %+v", in, out)
		}
		// NHat uses omitempty: 0 and -0 may drop, never change magnitude.
		if out.NHat != in.NHat && !(in.NHat == 0 && out.NHat == 0) {
			t.Fatalf("NHat changed: %v -> %v", in.NHat, out.NHat)
		}
	})
}
