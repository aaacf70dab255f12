package rdmagm

import (
	"fmt"

	"repro/internal/substrate"
)

// Wire framing for the one-sided ports. Verb descriptors travel to the
// target's verb port; completion entries travel back to the initiator's
// completion-queue port. Both are transport-internal binary frames,
// little-endian, hardened against truncation and garbage: on a faulty
// fabric the layer below may hand the NIC anything.

// Frame tags. Disjoint from the fastgm tags (1..5) so a frame misrouted
// across ports is always rejected rather than misparsed.
const (
	frameVerbPut      byte = 0x11 // one-sided scatter write: runs follow the header
	frameVerbGet      byte = 0x12 // one-sided read: no payload
	frameVerbFetchAdd byte = 0x13 // atomic fetch-and-add: 8-byte delta follows
	frameCompletion   byte = 0x14 // CQ entry answering one verb
)

// Completion statuses.
const (
	compOK        byte = 0 // verb executed
	compBadWindow byte = 1 // window id not registered at the target
	compOOB       byte = 2 // byte range outside the registered window
)

// verbHeaderLen is the fixed prefix of every verb frame:
// tag(1) origin(4) seq(4) window(4) off(4) length(4). For a Put, off is
// the base the runs are relative to and length the total run bytes.
const verbHeaderLen = 21

// runHeaderLen prefixes each run of a Put body: off(4) length(4), the
// run's offset relative to the verb's base and its byte count; the run's
// bytes follow immediately.
const runHeaderLen = 8

// compHeaderLen is the fixed prefix of every completion frame:
// tag(1) from(4) seq(4) op(1) status(1).
const compHeaderLen = 11

// faaWidth is the operand width of FetchAdd (one little-endian int64).
const faaWidth = 8

func put32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func get32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func put64(b []byte, v uint64) {
	put32(b, uint32(v))
	put32(b[4:], uint32(v>>32))
}

func get64(b []byte) uint64 {
	return uint64(get32(b)) | uint64(get32(b[4:]))<<32
}

// verbFrame is one decoded verb descriptor.
type verbFrame struct {
	op     byte
	origin int32
	seq    uint32
	window int32
	off    int
	length int
	delta  int64           // FetchAdd only
	runs   []substrate.Run // Put only; decoded run data aliases the receive buffer
}

// encodeVerb writes the frame for vf into dst and returns its length.
// dst must have room (verbFrameLen(vf) bytes).
func encodeVerb(dst []byte, vf *verbFrame) int {
	dst[0] = vf.op
	put32(dst[1:], uint32(vf.origin))
	put32(dst[5:], vf.seq)
	put32(dst[9:], uint32(vf.window))
	put32(dst[13:], uint32(vf.off))
	put32(dst[17:], uint32(vf.length))
	n := verbHeaderLen
	switch vf.op {
	case frameVerbPut:
		for _, r := range vf.runs {
			put32(dst[n:], uint32(r.Off))
			put32(dst[n+4:], uint32(len(r.Data)))
			n += runHeaderLen
			n += copy(dst[n:], r.Data)
		}
	case frameVerbFetchAdd:
		put64(dst[verbHeaderLen:], uint64(vf.delta))
		n += faaWidth
	}
	return n
}

// verbFrameLen returns the encoded size of vf.
func verbFrameLen(vf *verbFrame) int {
	switch vf.op {
	case frameVerbPut:
		return verbHeaderLen + len(vf.runs)*runHeaderLen + vf.length
	case frameVerbFetchAdd:
		return verbHeaderLen + faaWidth
	default:
		return verbHeaderLen
	}
}

// decodeVerb parses one verb frame. The returned run data aliases data.
func decodeVerb(data []byte) (*verbFrame, error) {
	if len(data) < verbHeaderLen {
		return nil, fmt.Errorf("rdmagm: verb frame truncated (%d bytes)", len(data))
	}
	vf := &verbFrame{
		op:     data[0],
		origin: int32(get32(data[1:])),
		seq:    get32(data[5:]),
		window: int32(get32(data[9:])),
		off:    int(int32(get32(data[13:]))),
		length: int(int32(get32(data[17:]))),
	}
	if vf.length < 0 {
		return nil, fmt.Errorf("rdmagm: verb with negative length %d", vf.length)
	}
	switch vf.op {
	case frameVerbPut:
		total := 0
		for body := data[verbHeaderLen:]; len(body) > 0; {
			if len(body) < runHeaderLen {
				return nil, fmt.Errorf("rdmagm: put run header truncated (%d bytes)", len(body))
			}
			off := int(int32(get32(body)))
			n := int(int32(get32(body[4:])))
			body = body[runHeaderLen:]
			if n < 0 || n > len(body) {
				return nil, fmt.Errorf("rdmagm: put run of %d bytes overruns the %d left in the frame", n, len(body))
			}
			vf.runs = append(vf.runs, substrate.Run{Off: off, Data: body[:n:n]})
			body = body[n:]
			total += n
		}
		if total != vf.length {
			return nil, fmt.Errorf("rdmagm: put frame carries %d run bytes, header claims %d", total, vf.length)
		}
	case frameVerbGet:
		if len(data) != verbHeaderLen {
			return nil, fmt.Errorf("rdmagm: get frame with trailing bytes")
		}
	case frameVerbFetchAdd:
		if vf.length != faaWidth || len(data) != verbHeaderLen+faaWidth {
			return nil, fmt.Errorf("rdmagm: fetch-add frame malformed")
		}
		vf.delta = int64(get64(data[verbHeaderLen:]))
	default:
		return nil, fmt.Errorf("rdmagm: unknown verb op %#x", vf.op)
	}
	return vf, nil
}

// compFrame is one decoded completion-queue entry.
type compFrame struct {
	from    int32
	seq     uint32
	op      byte
	status  byte
	payload []byte // Get payload (compOK); aliases the receive buffer
	old     int64  // FetchAdd pre-add value (compOK)
	// Bounds-fault detail (compBadWindow/compOOB).
	window int32
	off    int
	length int
	size   int64
}

// encodeCompletion builds the compOK CQ entry answering vf: get carries
// a Get's snapshot payload, faaOld a FetchAdd's pre-add value.
func encodeCompletion(from int32, vf *verbFrame, get []byte, faaOld int64) []byte {
	n := compHeaderLen
	switch vf.op {
	case frameVerbGet:
		n += len(get)
	case frameVerbFetchAdd:
		n += faaWidth
	}
	b := compHeader(n, from, vf, compOK)
	switch vf.op {
	case frameVerbGet:
		copy(b[compHeaderLen:], get)
	case frameVerbFetchAdd:
		put64(b[compHeaderLen:], uint64(faaOld))
	}
	return b
}

// encodeFault builds the CQ entry reporting a bounds fault on vf: the
// rejected byte range [off, off+length) and the registered window size
// (-1 for an unknown window id).
func encodeFault(from int32, vf *verbFrame, status byte, off, length int, size int64) []byte {
	b := compHeader(compHeaderLen+4+4+4+8, from, vf, status)
	put32(b[compHeaderLen:], uint32(vf.window))
	put32(b[compHeaderLen+4:], uint32(off))
	put32(b[compHeaderLen+8:], uint32(length))
	put64(b[compHeaderLen+12:], uint64(size))
	return b
}

// compHeader allocates an n-byte completion frame answering vf and fills
// in its fixed prefix.
func compHeader(n int, from int32, vf *verbFrame, status byte) []byte {
	b := make([]byte, n)
	b[0] = frameCompletion
	put32(b[1:], uint32(from))
	put32(b[5:], vf.seq)
	b[9] = vf.op
	b[10] = status
	return b
}

// decodeCompletion parses one CQ entry. The returned payload aliases data.
func decodeCompletion(data []byte) (*compFrame, error) {
	if len(data) < compHeaderLen {
		return nil, fmt.Errorf("rdmagm: completion truncated (%d bytes)", len(data))
	}
	cf := &compFrame{
		from:   int32(get32(data[1:])),
		seq:    get32(data[5:]),
		op:     data[9],
		status: data[10],
	}
	body := data[compHeaderLen:]
	switch {
	case cf.status == compBadWindow || cf.status == compOOB:
		if len(body) != 4+4+4+8 {
			return nil, fmt.Errorf("rdmagm: fault completion malformed")
		}
		cf.window = int32(get32(body))
		cf.off = int(int32(get32(body[4:])))
		cf.length = int(int32(get32(body[8:])))
		cf.size = int64(get64(body[12:]))
	case cf.status != compOK:
		return nil, fmt.Errorf("rdmagm: unknown completion status %#x", cf.status)
	case cf.op == frameVerbGet:
		cf.payload = body
	case cf.op == frameVerbFetchAdd:
		if len(body) != faaWidth {
			return nil, fmt.Errorf("rdmagm: fetch-add completion malformed")
		}
		cf.old = int64(get64(body))
	case cf.op == frameVerbPut:
		if len(body) != 0 {
			return nil, fmt.Errorf("rdmagm: put completion with trailing bytes")
		}
	default:
		return nil, fmt.Errorf("rdmagm: completion for unknown op %#x", cf.op)
	}
	return cf, nil
}
