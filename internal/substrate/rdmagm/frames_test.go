package rdmagm

import (
	"bytes"
	"testing"

	"repro/internal/sim"
	"repro/internal/substrate"
)

// scatterPut encodes a well-formed multi-run Put against window 1.
func scatterPut(seq uint32, base int, runs ...substrate.Run) []byte {
	vf := &verbFrame{op: frameVerbPut, origin: 1, seq: seq, window: 1, off: base, runs: runs}
	for _, r := range runs {
		vf.length += len(r.Data)
	}
	b := make([]byte, verbFrameLen(vf))
	encodeVerb(b, vf)
	return b
}

// TestScatterPutFrameRoundTrip: a multi-run Put decodes back to the same
// base, total length and runs, with every run's data aliasing the frame.
func TestScatterPutFrameRoundTrip(t *testing.T) {
	runs := []substrate.Run{
		{Off: 0, Data: []byte{1, 2, 3, 4}},
		{Off: 64, Data: []byte{5, 6, 7, 8, 9, 10, 11, 12}},
		{Off: 4000, Data: []byte{13}},
	}
	frame := scatterPut(7, 128, runs...)
	if want := verbHeaderLen + 3*runHeaderLen + 13; len(frame) != want {
		t.Fatalf("frame is %d bytes, want %d", len(frame), want)
	}
	vf, err := decodeVerb(frame)
	if err != nil {
		t.Fatal(err)
	}
	if vf.op != frameVerbPut || vf.seq != 7 || vf.off != 128 || vf.length != 13 || len(vf.runs) != 3 {
		t.Fatalf("decoded %+v", vf)
	}
	for i, r := range vf.runs {
		if r.Off != runs[i].Off || !bytes.Equal(r.Data, runs[i].Data) {
			t.Errorf("run %d decoded as %+v, want %+v", i, r, runs[i])
		}
	}
}

// TestMalformedScatterPutIsCorrupt: the firmware must reject, as a
// corrupt frame and without touching the window or answering, a Put
// whose run structure disagrees with itself — a run header cut short, a
// run claiming more bytes than the frame carries, a negative run length,
// or a header length that does not match the runs' total.
func TestMalformedScatterPutIsCorrupt(t *testing.T) {
	good := scatterPut(1, 0,
		substrate.Run{Off: 0, Data: []byte{1, 2, 3, 4}},
		substrate.Run{Off: 8, Data: []byte{5, 6, 7, 8}})
	withLength := func(b []byte, n uint32) []byte {
		b = append([]byte(nil), b...)
		put32(b[17:], n)
		return b
	}
	secondRun := verbHeaderLen + runHeaderLen + 4
	cases := map[string][]byte{
		// The second run's header is cut after 5 of its 8 bytes; the
		// header length counts only the complete first run.
		"truncated run header": withLength(good[:secondRun+5], 4),
		// The second run claims 200 bytes but the frame ends after 4.
		"run overruns payload": func() []byte {
			b := append([]byte(nil), good...)
			put32(b[secondRun+4:], 200)
			return b
		}(),
		"negative run length": func() []byte {
			b := append([]byte(nil), good...)
			put32(b[secondRun+4:], 0xFFFFFFFC)
			return b
		}(),
		"header length too long":  withLength(good, 9),
		"header length too short": withLength(good, 7),
		"header length zero":      withLength(good, 0),
	}
	for name, frame := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := decodeVerb(frame); err == nil {
				t.Fatal("decodeVerb accepted the frame")
			}
			fuzzCluster(t, func(p *sim.Proc, target, initiator *Transport) {
				target.onVerbFrame(deliver(p, target.node, 1, VerbPort, frame))
				st := target.Stats()
				if st.CorruptFrames != 1 {
					t.Errorf("CorruptFrames = %d, want 1", st.CorruptFrames)
				}
				if st.WindowFaults != 0 || st.DupRequests != 0 {
					t.Errorf("malformed frame reached verb execution: %+v", st)
				}
				if !bytes.Equal(target.windows[1], make([]byte, len(target.windows[1]))) {
					t.Error("malformed frame modified the window")
				}
			})
		})
	}
}
