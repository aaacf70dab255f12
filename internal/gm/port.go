package gm

import (
	"errors"
	"fmt"

	"repro/internal/myrinet"
	"repro/internal/sim"
	"repro/internal/trace"
)

// SendStatus is the outcome reported to a send callback.
type SendStatus int

// Send outcomes.
const (
	SendOK SendStatus = iota
	// SendTimedOut: the receiver never provided a matching receive buffer
	// within the resend timeout. The sending port is disabled.
	SendTimedOut
	// SendPortDisabled: the send was aborted because the port was
	// disabled by an earlier failure before this send completed.
	SendPortDisabled
)

func (st SendStatus) String() string {
	switch st {
	case SendOK:
		return "ok"
	case SendTimedOut:
		return "timed out"
	case SendPortDisabled:
		return "port disabled"
	default:
		return fmt.Sprintf("SendStatus(%d)", int(st))
	}
}

// SendCallback fires when GM finishes with a send (ack received or
// failure determined). It runs at the callback's virtual time in whatever
// context the simulator is in; it must not block.
type SendCallback func(status SendStatus)

// Errors returned by Send.
var (
	ErrNoSendTokens = errors.New("gm: no send tokens available")
	ErrPortDisabled = errors.New("gm: port disabled; resume required")
	ErrNotPinned    = errors.New("gm: send buffer not in registered memory")
)

// Recv is one received message as surfaced by a poll.
type Recv struct {
	From     myrinet.NodeID
	FromPort int
	Class    int
	Data     []byte  // length = message length; aliases Buffer storage
	Buffer   *Buffer // the preposted buffer the message landed in
	Aux      []byte  // uncharged envelope metadata (causal trace context), or nil
}

type parkedMsg struct {
	src     myrinet.NodeID
	pm      *partialMsg
	timeout *sim.Event
}

// PortStats counts port-level activity.
type PortStats struct {
	Sent          int64
	SendBytes     int64
	Received      int64
	RecvBytes     int64
	Parked        int64 // messages that arrived with no matching buffer
	Timeouts      int64 // parked messages that expired (sender notified)
	Interrupts    int64
	TokenStalls   int64 // Send calls rejected for lack of tokens
	BuffersPosted int64
	Resumes       int64 // re-enables after a timeout disabled the port
	Aborted       int64 // in-flight sends aborted by a port disable
}

// Port is one GM communication endpoint on a node.
type Port struct {
	node    *Node
	id      int
	tokens  int
	enabled bool

	rxQ    []*Recv
	rxCond *sim.Cond

	posted map[int][]*Buffer    // class → preposted receive buffers
	parked map[int][]*parkedMsg // class → arrivals awaiting a buffer

	// inflight are the unresolved sends, in send order (a slice, not a
	// map, so the disable-time abort cascade is deterministic).
	inflight []*sendRecord

	intrProc    *sim.Proc
	intrEnabled bool

	sink   func(*Recv)
	filter func(*Recv) bool

	stats PortStats
}

// tracer returns the simulation's structured tracer, or nil.
func (p *Port) tracer() *trace.Tracer { return p.node.sys.s.Tracer() }

// SetSink installs a scheduler-context delivery function that intercepts
// every accepted message instead of queuing it for Poll/WaitRecv. This
// models a kernel-owned port (the Sockets-GM path): the "kernel" consumes
// arrivals immediately and recycles the receive buffers itself.
func (p *Port) SetSink(fn func(*Recv)) { p.sink = fn }

// SetFilter installs a NIC-context classifier invoked for every frame
// this port accepts, before queueing or sinking. Returning true consumes
// the frame: the receive buffer is re-posted immediately and the host
// never sees it. This models firmware-level protocol handling (in the
// spirit of the paper's firmware modification): a liveness probe is
// observed at arrival even while the host computes or masks interrupts,
// and it never occupies a host receive buffer.
func (p *Port) SetFilter(fn func(*Recv) bool) { p.filter = fn }

// ID returns the port number.
func (p *Port) ID() int { return p.id }

// Node returns the owning node.
func (p *Port) Node() *Node { return p.node }

// Enabled reports whether the port can send.
func (p *Port) Enabled() bool { return p.enabled }

// Tokens returns the number of available send tokens.
func (p *Port) Tokens() int { return p.tokens }

// Stats returns a copy of the port's counters.
func (p *Port) Stats() PortStats { return p.stats }

// Resume re-enables a port disabled by a send timeout. GM must probe the
// network to do this, which is expensive (gm_resume_sending).
func (p *Port) Resume(proc *sim.Proc) {
	if p.enabled {
		return
	}
	proc.Advance(p.node.sys.params.ResumeCost)
	p.enabled = true
	p.stats.Resumes++
	p.traceResume()
}

// ForceResume re-enables the port with no process charged. Kernel-owned
// ports (and user transports that model the probe delay on the event
// clock themselves) use this.
func (p *Port) ForceResume() {
	if p.enabled {
		return
	}
	p.enabled = true
	p.stats.Resumes++
	p.traceResume()
}

func (p *Port) traceResume() {
	if tr := p.tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
			Kind: "port-resume", Proc: -1, Peer: int(p.node.id)})
		tr.Metrics().Counter(trace.LayerGM, "port.resumes").Inc(1)
	}
}

// dropInflight removes a resolved send record from the in-flight list.
func (p *Port) dropInflight(rec *sendRecord) {
	for i, r := range p.inflight {
		if r == rec {
			p.inflight = append(p.inflight[:i], p.inflight[i+1:]...)
			return
		}
	}
}

// ProvideReceiveBuffer preposts b for messages of b's size class. If a
// message of that class is already parked waiting, it is accepted
// immediately (and its sender's pending timeout cancelled).
func (p *Port) ProvideReceiveBuffer(b *Buffer) {
	if !b.mem.registered {
		panic("gm: receive buffer not in registered memory")
	}
	p.stats.BuffersPosted++
	if waiting := p.parked[b.class]; len(waiting) > 0 {
		w := waiting[0]
		p.parked[b.class] = waiting[:copy(waiting, waiting[1:])]
		w.timeout.Cancel()
		p.accept(w.src, w.pm, b)
		return
	}
	p.posted[b.class] = append(p.posted[b.class], b)
}

// PostedBuffers reports how many buffers of the given class are preposted.
func (p *Port) PostedBuffers(class int) int { return len(p.posted[class]) }

// Send transmits n bytes from registered buffer b to (dst, dstPort). The
// calling process is charged the host-side send overhead; cb fires when
// the message is accepted at the receiver (SendOK) or the transfer fails.
// The data is copied out of b before Send returns, so b may be reused as
// soon as cb fires (GM's contract).
func (p *Port) Send(proc *sim.Proc, dst myrinet.NodeID, dstPort int, b *Buffer, n int, cb SendCallback) error {
	return p.send(proc, dst, dstPort, b, n, nil, cb)
}

// SendAux is Send with uncharged envelope metadata attached: aux rides
// the message outside the billed payload (observation only — it adds no
// bytes to any fragment and no virtual time to any charge) and surfaces
// as Recv.Aux at the receiver. Retransmissions of the same logical
// message must resend the same aux.
func (p *Port) SendAux(proc *sim.Proc, dst myrinet.NodeID, dstPort int, b *Buffer, n int, aux []byte, cb SendCallback) error {
	return p.send(proc, dst, dstPort, b, n, aux, cb)
}

// SendFromKernel is Send issued from kernel context: no process is
// charged the host send overhead (the syscall path already accounted for
// it, or the send happens from a completion handler on the event clock).
func (p *Port) SendFromKernel(dst myrinet.NodeID, dstPort int, b *Buffer, n int, cb SendCallback) error {
	return p.send(nil, dst, dstPort, b, n, nil, cb)
}

// SendFromKernelAux is SendFromKernel with uncharged envelope metadata
// (see SendAux).
func (p *Port) SendFromKernelAux(dst myrinet.NodeID, dstPort int, b *Buffer, n int, aux []byte, cb SendCallback) error {
	return p.send(nil, dst, dstPort, b, n, aux, cb)
}

func (p *Port) send(proc *sim.Proc, dst myrinet.NodeID, dstPort int, b *Buffer, n int, aux []byte, cb SendCallback) error {
	params := p.node.sys.params
	if !p.enabled {
		return ErrPortDisabled
	}
	if b == nil || !b.mem.registered {
		return ErrNotPinned
	}
	if n < 0 || n > ClassCapacity(b.class) {
		return fmt.Errorf("gm: send length %d outside buffer capacity %d", n, ClassCapacity(b.class))
	}
	if p.tokens <= 0 {
		p.stats.TokenStalls++
		if tr := p.tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
				Kind: "token-stall", Proc: procID(proc), Peer: int(dst)})
			tr.Metrics().Counter(trace.LayerGM, "token.stalls").Inc(0)
		}
		return ErrNoSendTokens
	}
	p.tokens--
	if proc != nil {
		proc.Advance(params.SendOverhead)
	}

	class := params.ClassFor(n)
	p.stats.Sent++
	p.stats.SendBytes += int64(n)
	if tr := p.tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
			Kind: "send", Proc: procID(proc), Peer: int(dst), Bytes: n})
		tr.Metrics().Counter(trace.LayerGM, fmt.Sprintf("send.class%d", class)).Inc(int64(n))
	}

	rec := &sendRecord{port: p, cb: cb}
	p.inflight = append(p.inflight, rec)
	p.node.nextMsgID++
	msgID := p.node.nextMsgID
	meta := msgMeta{class: class, srcPort: p.id, sendRec: rec, aux: aux}

	frags := p.node.sys.fabric.FragmentSizes(n)
	data := b.Bytes()
	off := 0
	for i, fl := range frags {
		p.node.nic.SendPacket(&myrinet.Packet{
			Src:      p.node.id,
			Dst:      dst,
			DstPort:  dstPort,
			MsgID:    msgID,
			Frag:     i,
			NumFrags: len(frags),
			MsgLen:   n,
			Payload:  data[off : off+fl],
			Meta:     meta,
		})
		off += fl
	}
	// The resend timeout is armed at the sender: if the receiver never
	// accepts (closed port or no buffer), this fires.
	rec.timeout = p.node.sys.s.After(params.ResendTimeout, func() {
		rec.fail(SendTimedOut)
	})
	return nil
}

// complete finishes a send successfully: token returned, callback fired.
func (r *sendRecord) complete() {
	if r.completed {
		return
	}
	r.completed = true
	if r.timeout != nil {
		r.timeout.Cancel()
	}
	r.port.dropInflight(r)
	r.port.tokens++
	if r.cb != nil {
		r.cb(SendOK)
	}
}

// fail finishes a send unsuccessfully. A resend timeout (SendTimedOut)
// disables the sending port — real GM's drastic reaction — and then
// aborts every other in-flight send on the port with SendPortDisabled
// rather than letting each time out serially.
func (r *sendRecord) fail(st SendStatus) {
	if r.completed {
		return
	}
	r.completed = true
	if r.timeout != nil {
		r.timeout.Cancel()
	}
	p := r.port
	p.dropInflight(r)
	p.tokens++
	if st != SendTimedOut {
		p.stats.Aborted++
		if tr := p.tracer(); tr != nil {
			tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
				Kind: "send-aborted", Proc: -1, Peer: int(p.node.id)})
			tr.Metrics().Counter(trace.LayerGM, "send.aborted").Inc(1)
		}
		if r.cb != nil {
			r.cb(st)
		}
		return
	}
	p.stats.Timeouts++
	wasEnabled := p.enabled
	p.enabled = false
	if tr := p.tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
			Kind: "send-timeout", Proc: -1, Peer: int(p.node.id)})
		tr.Metrics().Counter(trace.LayerGM, "send.timeouts").Inc(0)
	}
	if r.cb != nil {
		r.cb(st)
	}
	if wasEnabled {
		doomed := append([]*sendRecord(nil), p.inflight...)
		for _, d := range doomed {
			d.fail(SendPortDisabled)
		}
	}
}

// arrive is called in scheduler context when a complete message reaches
// this port. It matches a preposted buffer of the exact class or parks.
func (p *Port) arrive(src myrinet.NodeID, pm *partialMsg) {
	class := pm.meta.class
	if tr := p.tracer(); tr != nil {
		// Occupancy of this class's prepost pool at arrival: 0 means the
		// message is about to park — the paper's feared failure mode.
		tr.Metrics().Histogram(trace.LayerGM,
			fmt.Sprintf("prepost.class%d", class)).Observe(int64(len(p.posted[class])))
	}
	if bufs := p.posted[class]; len(bufs) > 0 {
		b := bufs[0]
		p.posted[class] = bufs[:copy(bufs, bufs[1:])]
		p.accept(src, pm, b)
		return
	}
	p.stats.Parked++
	if tr := p.tracer(); tr != nil {
		tr.Emit(trace.Event{T: int64(p.node.sys.s.Now()), Layer: trace.LayerGM,
			Kind: "parked", Proc: -1, Peer: int(src), Bytes: len(pm.data)})
		tr.Metrics().Counter(trace.LayerGM, "parked").Inc(int64(len(pm.data)))
	}
	park := &parkedMsg{src: src, pm: pm}
	// The receiver-side park expires with the sender's timeout; keep a
	// local event so the parked entry is reclaimed.
	park.timeout = p.node.sys.s.After(p.node.sys.params.ResendTimeout, func() {
		p.unpark(park)
	})
	p.parked[class] = append(p.parked[class], park)
}

func (p *Port) unpark(park *parkedMsg) {
	class := park.pm.meta.class
	q := p.parked[class]
	for i, w := range q {
		if w == park {
			p.parked[class] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// accept copies the message into a buffer, queues the receive event, and
// acknowledges the sender.
func (p *Port) accept(src myrinet.NodeID, pm *partialMsg, b *Buffer) {
	data := b.Bytes()
	copy(data, pm.data)
	rv := &Recv{
		From:     src,
		FromPort: pm.meta.srcPort,
		Class:    pm.meta.class,
		Data:     data[:len(pm.data)],
		Buffer:   b,
		Aux:      pm.meta.aux,
	}
	p.stats.Received++
	p.stats.RecvBytes += int64(len(pm.data))
	if tr := p.tracer(); tr != nil {
		tr.Metrics().Counter(trace.LayerGM, "recv").Inc(int64(len(pm.data)))
	}

	// Ack the sender after the NIC-level ack latency.
	if rec := pm.meta.sendRec; rec != nil {
		p.node.sys.s.After(p.node.sys.params.AckLatency, rec.complete)
	}

	if p.filter != nil && p.filter(rv) {
		p.ProvideReceiveBuffer(b)
		return
	}
	if p.sink != nil {
		p.sink(rv)
		return
	}
	p.rxQ = append(p.rxQ, rv)
	p.rxCond.Broadcast()
	if p.intrEnabled && p.intrProc != nil {
		p.stats.Interrupts++
		if tr := p.tracer(); tr != nil {
			tr.Metrics().Counter(trace.LayerGM, "nic.interrupts").Inc(0)
		}
		p.intrProc.Interrupt(p)
	}
}

// procID returns the trace process id for proc, -1 for kernel context.
func procID(proc *sim.Proc) int {
	if proc == nil {
		return -1
	}
	return proc.ID()
}

// Poll checks the receive queue once, charging the appropriate poll cost.
// It returns nil when no message is pending.
func (p *Port) Poll(proc *sim.Proc) *Recv {
	params := p.node.sys.params
	if len(p.rxQ) == 0 {
		proc.Advance(params.EmptyPollOverhead)
		return nil
	}
	proc.Advance(params.PollOverhead + params.RecvDispatch)
	if len(p.rxQ) == 0 {
		// The poll charge is a blocking point: an interrupt serviced during
		// it can run a handler that drains this same port (a lock grant
		// flushing diffs reaps the completion queue). Report empty rather
		// than consume a message that is no longer there.
		return nil
	}
	rv := p.rxQ[0]
	p.rxQ = p.rxQ[:copy(p.rxQ, p.rxQ[1:])]
	return rv
}

// TryPeek reports whether a message is pending, with no cost. Used by
// transports to decide whether to enter a blocking wait.
func (p *Port) TryPeek() bool { return len(p.rxQ) > 0 }

// WaitRecv blocks (modelling a gm_receive polling loop: the CPU spins but
// virtual time passes only until the next arrival) until a message is
// available, then returns it with the poll cost charged.
func (p *Port) WaitRecv(proc *sim.Proc) *Recv {
	for len(p.rxQ) == 0 {
		proc.WaitOn(p.rxCond)
	}
	return p.Poll(proc)
}

// WaitRecvUntil is WaitRecv with a deadline; it returns nil if the
// deadline passes first.
func (p *Port) WaitRecvUntil(proc *sim.Proc, deadline sim.Time) *Recv {
	for len(p.rxQ) == 0 {
		if proc.Now() >= deadline {
			return nil
		}
		proc.WaitOnUntil(p.rxCond, deadline)
	}
	return p.Poll(proc)
}

// EnableInterrupt turns on the paper's NIC-firmware modification for this
// port: every accepted message raises a host interrupt delivered to proc
// (payload: the *Port). The process's interrupt handler typically drains
// the port with Poll.
func (p *Port) EnableInterrupt(proc *sim.Proc) {
	p.intrProc = proc
	p.intrEnabled = true
}

// DisableInterrupt reverts the port to pure polling.
func (p *Port) DisableInterrupt() { p.intrEnabled = false }

// InterruptCost returns the modelled NIC interrupt dispatch cost; the
// interrupt handler charges this on entry.
func (p *Port) InterruptCost() sim.Time { return p.node.sys.params.InterruptOverhead }
