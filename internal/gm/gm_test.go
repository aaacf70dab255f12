package gm

import (
	"bytes"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/myrinet"
	"repro/internal/sim"
)

func newTestSystem(t *testing.T, nodes int) (*sim.Simulator, *System) {
	t.Helper()
	s := sim.New(1)
	f := myrinet.NewFabric(s, myrinet.DefaultParams(), nodes)
	return s, NewSystem(s, f, DefaultParams())
}

func TestClassFor(t *testing.T) {
	p := DefaultParams()
	cases := []struct {
		n, class int
	}{
		{0, 4}, {1, 4}, {16, 4},
		{17, 5}, {32, 5},
		{33, 6},
		{4096, 12}, {4097, 13},
		{32768, 15},
	}
	for _, c := range cases {
		if got := p.ClassFor(c.n); got != c.class {
			t.Errorf("ClassFor(%d) = %d, want %d", c.n, got, c.class)
		}
	}
}

func TestClassForPanicsOnOversize(t *testing.T) {
	p := DefaultParams()
	defer func() {
		if recover() == nil {
			t.Error("no panic for oversize message")
		}
	}()
	p.ClassFor(p.MaxMessage() + 1)
}

func TestClassForProperty(t *testing.T) {
	p := DefaultParams()
	prop := func(raw uint16) bool {
		n := int(raw) % (p.MaxMessage() + 1)
		c := p.ClassFor(n)
		if c < p.MinClass || c > p.MaxClass {
			return false
		}
		if n > ClassCapacity(c) {
			return false
		}
		// Minimality: the class below (if in range) must be too small.
		if c > p.MinClass && n <= ClassCapacity(c-1) {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPortOpenRules(t *testing.T) {
	_, sys := newTestSystem(t, 1)
	n := sys.Node(0)
	if _, err := n.OpenPort(MapperPort); err == nil {
		t.Error("opening the mapper port succeeded")
	}
	if _, err := n.OpenPort(NumPorts); err == nil {
		t.Error("opening port 8 succeeded")
	}
	if _, err := n.OpenPort(2); err != nil {
		t.Errorf("OpenPort(2): %v", err)
	}
	if _, err := n.OpenPort(2); err == nil {
		t.Error("double-open succeeded")
	}
	if n.Port(2) == nil || n.Port(3) != nil || n.Port(-1) != nil || n.Port(99) != nil {
		t.Error("Port() lookup wrong")
	}
}

// openPair opens port `port` on nodes 0 and 1.
func openPair(t *testing.T, sys *System, port int) (*Port, *Port) {
	t.Helper()
	a, err := sys.Node(0).OpenPort(port)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Node(1).OpenPort(port)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestSendReceiveRoundTrip(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	var got []byte
	var from myrinet.NodeID
	var fromPort int
	var status SendStatus = -1

	s.Spawn("recv", 0, func(p *sim.Proc) {
		// "hello gm!" is 9 bytes → class 4; the preposted buffer must be
		// of exactly that class.
		b := sys.Node(1).AllocBuffer(p, 4)
		pb.ProvideReceiveBuffer(b)
		rv := pb.WaitRecv(p)
		got = append([]byte(nil), rv.Data...)
		from = rv.From
		fromPort = rv.FromPort
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		copy(b.Bytes(), "hello gm!")
		if err := pa.Send(p, 1, 2, b, 9, func(st SendStatus) { status = st }); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello gm!" {
		t.Errorf("got %q", got)
	}
	if from != 0 || fromPort != 2 {
		t.Errorf("from=%d fromPort=%d", from, fromPort)
	}
	if status != SendOK {
		t.Errorf("send status = %v", status)
	}
}

func TestOneByteLatencyMatchesPaper(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	var deliveredAt sim.Time
	s.Spawn("recv", 0, func(p *sim.Proc) {
		b := sys.Node(1).AllocBuffer(p, 4)
		pb.ProvideReceiveBuffer(b)
		pb.WaitRecv(p)
		deliveredAt = p.Now()
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		// Let the receiver finish its (costed) setup before timing the
		// send: registration costs would otherwise skew the start.
		p.Advance(sim.Micro(100))
		b := sys.Node(0).AllocBuffer(p, 4)
		start := p.Now()
		if err := pa.Send(p, 1, 2, b, 1, nil); err != nil {
			t.Fatal(err)
		}
		_ = start
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Send initiated at ~100µs (+ sender alloc registration ~14µs). The
	// paper's GM 1-byte one-way latency is 8.99 µs; accept 8–10 µs.
	lat := deliveredAt - sim.Micro(100) - sim.Micro(14)
	if lat < sim.Micro(8) || lat > sim.Micro(10) {
		t.Errorf("GM 1-byte latency ≈ %v, want 8.99µs ± 1µs", lat)
	}
}

func TestSendTokensExhaust(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, _ := openPair(t, sys, 2)
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		n := 0
		for {
			err := pa.Send(p, 1, 2, b, 8, nil)
			if err == ErrNoSendTokens {
				break
			}
			if err != nil {
				t.Fatalf("unexpected send error: %v", err)
			}
			n++
			if n > 1000 {
				t.Fatal("tokens never exhausted")
			}
		}
		if n != DefaultParams().SendTokens {
			t.Errorf("sent %d before token exhaustion, want %d", n, DefaultParams().SendTokens)
		}
		if pa.Stats().TokenStalls != 1 {
			t.Errorf("TokenStalls = %d", pa.Stats().TokenStalls)
		}
	})
	// Receiver never posts buffers: all sends eventually time out; run
	// only until before the timeout to observe pure token behaviour.
	if err := s.RunUntil(sim.Second); err != nil {
		t.Fatal(err)
	}
}

func TestSendTimeoutDisablesPortAndResume(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	var status SendStatus = -1
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		if err := pa.Send(p, 1, 2, b, 8, func(st SendStatus) { status = st }); err != nil {
			t.Fatal(err)
		}
		// Wait out the 3 s resend timeout.
		p.Advance(4 * sim.Second)
		if status != SendTimedOut {
			t.Errorf("status = %v, want timed out", status)
		}
		if pa.Enabled() {
			t.Error("port still enabled after timeout")
		}
		if err := pa.Send(p, 1, 2, b, 8, nil); err != ErrPortDisabled {
			t.Errorf("send on disabled port: %v, want ErrPortDisabled", err)
		}
		before := p.Now()
		pa.Resume(p)
		if p.Now()-before != DefaultParams().ResumeCost {
			t.Errorf("resume cost = %v", p.Now()-before)
		}
		if !pa.Enabled() {
			t.Error("port not re-enabled")
		}
		// And sends work again once the peer posts a buffer.
		done := false
		if err := pa.Send(p, 1, 2, b, 8, func(st SendStatus) { done = st == SendOK }); err != nil {
			t.Fatal(err)
		}
		// The peer posts its buffer at t=5s; wait past that.
		p.Advance(2 * sim.Second)
		if !done {
			t.Error("post-resume send did not complete")
		}
	})
	s.Spawn("recv", 0, func(p *sim.Proc) {
		// Post a buffer only after the first send has already died.
		p.Advance(5 * sim.Second)
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
		pb.WaitRecv(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestClassMatchingIsExact(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	delivered := false
	s.Spawn("recv", 0, func(p *sim.Proc) {
		// Post a class-8 buffer; a 9-byte (class 4) message must NOT use it.
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 8))
		if rv := pb.WaitRecvUntil(p, 100*sim.Millisecond); rv != nil {
			delivered = true
		}
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		if err := pa.Send(p, 1, 2, b, 9, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.RunUntil(200 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Error("class-4 message delivered into class-8 buffer")
	}
	if pb.Stats().Parked != 1 {
		t.Errorf("Parked = %d, want 1", pb.Stats().Parked)
	}
}

func TestLateBufferUnparksMessage(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	var rv *Recv
	s.Spawn("recv", 0, func(p *sim.Proc) {
		p.Advance(50 * sim.Millisecond) // message arrives while unposted
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
		rv = pb.WaitRecv(p)
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		copy(b.Bytes(), "park me!")
		if err := pa.Send(p, 1, 2, b, 8, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rv == nil || string(rv.Data) != "park me!" {
		t.Fatalf("parked message not recovered: %v", rv)
	}
	if pa.Enabled() != true {
		t.Error("sender port disabled despite eventual acceptance")
	}
}

func TestLargeMessageFragmentationRoundTrip(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	const n = 20000 // class 15, 5 fragments at MTU 4096
	var got []byte
	s.Spawn("recv", 0, func(p *sim.Proc) {
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 15))
		rv := pb.WaitRecv(p)
		got = append([]byte(nil), rv.Data...)
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 15)
		for i := 0; i < n; i++ {
			b.Bytes()[i] = byte(i * 31)
		}
		if err := pa.Send(p, 1, 2, b, n, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d bytes, want %d", len(got), n)
	}
	for i := 0; i < n; i++ {
		if got[i] != byte(i*31) {
			t.Fatalf("corruption at byte %d", i)
		}
	}
}

func TestReceiveInterrupt(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	var handled []string
	s.Spawn("recv", 0, func(p *sim.Proc) {
		p.SetInterruptHandler(func(p *sim.Proc, payload any) {
			port := payload.(*Port)
			p.Advance(port.InterruptCost())
			for port.TryPeek() {
				rv := port.Poll(p)
				handled = append(handled, string(rv.Data))
			}
		})
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
		pb.EnableInterrupt(p)
		// Go compute; interrupts should arrive mid-compute.
		p.Advance(10 * sim.Millisecond)
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		// Let the receiver finish posting and enabling interrupts first.
		p.Advance(sim.Millisecond)
		b := sys.Node(0).AllocBuffer(p, 4)
		copy(b.Bytes(), "m1")
		if err := pa.Send(p, 1, 2, b, 2, nil); err != nil {
			t.Fatal(err)
		}
		p.Advance(sim.Millisecond)
		b2 := sys.Node(0).AllocBuffer(p, 4)
		copy(b2.Bytes(), "m2")
		if err := pa.Send(p, 1, 2, b2, 2, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(handled) != 2 || handled[0] != "m1" || handled[1] != "m2" {
		t.Errorf("handled = %q", handled)
	}
	if pb.Stats().Interrupts != 2 {
		t.Errorf("interrupts = %d", pb.Stats().Interrupts)
	}
}

func TestSendToClosedPortTimesOut(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, err := sys.Node(0).OpenPort(2)
	if err != nil {
		t.Fatal(err)
	}
	var status SendStatus = -1
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		if err := pa.Send(p, 1, 5, b, 4, func(st SendStatus) { status = st }); err != nil {
			t.Fatal(err)
		}
		p.Advance(4 * sim.Second)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if status != SendTimedOut {
		t.Errorf("status = %v, want timed out", status)
	}
}

func TestRegisteredMemoryAccounting(t *testing.T) {
	s, sys := newTestSystem(t, 1)
	n := sys.Node(0)
	s.Spawn("p", 0, func(p *sim.Proc) {
		m1 := n.Register(p, 10000)
		if n.PinnedBytes() != 10000 {
			t.Errorf("pinned = %d", n.PinnedBytes())
		}
		m2 := n.Register(p, 6000)
		if n.PinnedBytes() != 16000 {
			t.Errorf("pinned = %d", n.PinnedBytes())
		}
		if n.MaxPinnedBytes() != 16000 {
			t.Errorf("max pinned = %d", n.MaxPinnedBytes())
		}
		m1.Deregister(p)
		if n.PinnedBytes() != 6000 {
			t.Errorf("pinned after dereg = %d", n.PinnedBytes())
		}
		if n.MaxPinnedBytes() != 16000 {
			t.Errorf("max pinned after dereg = %d", n.MaxPinnedBytes())
		}
		m1.Deregister(p) // double dereg is a no-op
		if n.PinnedBytes() != 6000 {
			t.Error("double deregister changed accounting")
		}
		_ = m2
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationCostScalesWithPages(t *testing.T) {
	s, sys := newTestSystem(t, 1)
	n := sys.Node(0)
	s.Spawn("p", 0, func(p *sim.Proc) {
		t0 := p.Now()
		n.Register(p, PageSize)
		small := p.Now() - t0
		t1 := p.Now()
		n.Register(p, 64*PageSize)
		big := p.Now() - t1
		if big <= small {
			t.Errorf("64-page registration (%v) not costlier than 1-page (%v)", big, small)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSubBuffer(t *testing.T) {
	s, sys := newTestSystem(t, 1)
	n := sys.Node(0)
	s.Spawn("p", 0, func(p *sim.Proc) {
		m := n.Register(p, 4096)
		b := m.SubBuffer(1024, 6)
		if len(b.Bytes()) != 64 || b.Class() != 6 {
			t.Errorf("SubBuffer wrong: len=%d class=%d", len(b.Bytes()), b.Class())
		}
		// Buffers of one region have independent storage.
		c := m.SubBuffer(1024, 6)
		b.Bytes()[0] = 0xEE
		if c.Bytes()[0] != 0 {
			t.Error("SubBuffers of one region share storage")
		}
		defer func() {
			if recover() == nil {
				t.Error("out-of-range SubBuffer did not panic")
			}
		}()
		m.SubBuffer(4090, 6)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRegisterAllocatesNoHostBytes(t *testing.T) {
	s, sys := newTestSystem(t, 1)
	n := sys.Node(0)
	var ms0, ms1 runtime.MemStats
	s.Spawn("p", 0, func(p *sim.Proc) {
		runtime.ReadMemStats(&ms0)
		n.Register(p, 64<<20)
		runtime.ReadMemStats(&ms1)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if d := ms1.TotalAlloc - ms0.TotalAlloc; d >= 64<<10 {
		t.Errorf("Register(64 MiB) allocated %d host bytes", d)
	}
	if n.PinnedBytes() != 64<<20 {
		t.Errorf("pinned = %d", n.PinnedBytes())
	}
}

func TestBufferBytesMaterialisedOnce(t *testing.T) {
	s, sys := newTestSystem(t, 1)
	n := sys.Node(0)
	s.Spawn("p", 0, func(p *sim.Proc) {
		for _, b := range []*Buffer{n.AllocBuffer(p, 9), n.Register(p, 8192).SubBuffer(4096, 12)} {
			d := b.Bytes()
			if want := ClassCapacity(b.Class()); len(d) != want || cap(d) != want {
				t.Errorf("class %d: len=%d cap=%d, want %d", b.Class(), len(d), cap(d), want)
			}
			d[0] = 0x5A
			if again := b.Bytes(); &again[0] != &d[0] || again[0] != 0x5A {
				t.Errorf("class %d: Bytes not stable across calls", b.Class())
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSendFromUntouchedBufferDeliversZeros(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	const n = 3000 // class 12, several fabric fragments
	var got []byte
	s.Spawn("recv", 0, func(p *sim.Proc) {
		b := sys.Node(1).AllocBuffer(p, 12)
		for i := range b.Bytes() {
			b.Bytes()[i] = 0xFF
		}
		pb.ProvideReceiveBuffer(b)
		got = pb.WaitRecv(p).Data
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		if err := pa.Send(p, 1, 2, sys.Node(0).AllocBuffer(p, 12), n, nil); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, make([]byte, n)) {
		t.Errorf("got %d bytes, not %d zeros", len(got), n)
	}
}

func TestSendFromUnregisteredMemoryFails(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, _ := openPair(t, sys, 2)
	s.Spawn("p", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		b.mem.Deregister(p)
		if err := pa.Send(p, 1, 2, b, 4, nil); err != ErrNotPinned {
			t.Errorf("err = %v, want ErrNotPinned", err)
		}
		if err := pa.Send(p, 1, 2, nil, 4, nil); err != ErrNotPinned {
			t.Errorf("nil buffer err = %v, want ErrNotPinned", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFIFOOrderAcrossSizes(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	var order []int
	s.Spawn("recv", 0, func(p *sim.Proc) {
		for c := 4; c <= 12; c++ {
			for i := 0; i < 3; i++ {
				pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, c))
			}
		}
		for i := 0; i < 10; i++ {
			rv := pb.WaitRecv(p)
			order = append(order, int(rv.Data[0]))
		}
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		p.Advance(10 * sim.Millisecond) // let receiver post everything
		b := sys.Node(0).AllocBuffer(p, 12)
		sizes := []int{8, 4096, 16, 1000, 2048, 8, 512, 3000, 64, 100}
		for i, n := range sizes {
			b.Bytes()[0] = byte(i)
			for pa.Tokens() == 0 {
				p.Advance(sim.Microsecond)
			}
			if err := pa.Send(p, 1, 2, b, n, nil); err != nil {
				t.Fatal(err)
			}
			// GM contract: buffer reusable only after completion; wait a
			// beat so the next overwrite doesn't race the copy. Our model
			// copies synchronously at Send, but respect the API anyway.
			p.Advance(sim.Micro(50))
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("messages reordered: %v", order)
		}
	}
}

func TestWaitRecvUntilTimesOut(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	_, pb := openPair(t, sys, 2)
	s.Spawn("recv", 0, func(p *sim.Proc) {
		rv := pb.WaitRecvUntil(p, 500*sim.Microsecond)
		if rv != nil {
			t.Error("got message from nowhere")
		}
		if p.Now() != 500*sim.Microsecond {
			t.Errorf("woke at %v", p.Now())
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBandwidthMatchesPaper(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	const msgSize = 32768
	const count = 64
	var doneAt sim.Time
	s.Spawn("recv", 0, func(p *sim.Proc) {
		for i := 0; i < DefaultParams().SendTokens+2; i++ {
			pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 15))
		}
		for i := 0; i < count; i++ {
			rv := pb.WaitRecv(p)
			pb.ProvideReceiveBuffer(rv.Buffer)
		}
		doneAt = p.Now()
	})
	var startAt sim.Time
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 15)
		p.Advance(sim.Millisecond)
		startAt = p.Now()
		inflight := 0
		sent := 0
		for sent < count {
			if pa.Tokens() > 0 {
				inflight++
				sent++
				if err := pa.Send(p, 1, 2, b, msgSize, func(st SendStatus) { inflight-- }); err != nil {
					t.Fatal(err)
				}
			} else {
				p.Advance(sim.Micro(5))
			}
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	bw := float64(msgSize*count) / (doneAt - startAt).Seconds()
	if bw < 215e6 || bw > 250e6 {
		t.Errorf("GM streaming bandwidth = %.1f MB/s, want ≈235 MB/s", bw/1e6)
	}
}

func TestStatsCounting(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	s.Spawn("recv", 0, func(p *sim.Proc) {
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
		pb.WaitRecv(p)
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		if err := pa.Send(p, 1, 2, b, 10, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if st := pa.Stats(); st.Sent != 1 || st.SendBytes != 10 {
		t.Errorf("send stats: %+v", st)
	}
	if st := pb.Stats(); st.Received != 1 || st.RecvBytes != 10 || st.BuffersPosted != 1 {
		t.Errorf("recv stats: %+v", st)
	}
}

func TestSendStatusString(t *testing.T) {
	if SendOK.String() != "ok" || SendTimedOut.String() != "timed out" ||
		SendPortDisabled.String() != "port disabled" || SendStatus(9).String() != "SendStatus(9)" {
		t.Error("SendStatus strings wrong")
	}
}

func TestSendLengthValidation(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, _ := openPair(t, sys, 2)
	s.Spawn("p", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4) // 16-byte capacity
		if err := pa.Send(p, 1, 2, b, 17, nil); err == nil {
			t.Error("oversize send within buffer succeeded")
		}
		if err := pa.Send(p, 1, 2, b, -1, nil); err == nil {
			t.Error("negative length send succeeded")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBytesEqualHelper(t *testing.T) {
	// Guard against accidental aliasing between posted buffer storage and
	// delivered Data slices.
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	var rv *Recv
	s.Spawn("recv", 0, func(p *sim.Proc) {
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
		rv = pb.WaitRecv(p)
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		copy(b.Bytes(), "abcd")
		if err := pa.Send(p, 1, 2, b, 4, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rv.Data, rv.Buffer.Bytes()[:4]) {
		t.Error("Recv.Data does not alias its Buffer")
	}
}

func TestMapper(t *testing.T) {
	s, sys := newTestSystem(t, 4)
	m := sys.Mapper()
	if m.Mapped() {
		t.Error("mapped before Map")
	}
	if _, err := m.Route(0, 1); err == nil {
		t.Error("route lookup before Map succeeded")
	}
	s.Spawn("boot", 0, func(p *sim.Proc) {
		start := p.Now()
		m.Map(p)
		if p.Now()-start != 4*MapCost {
			t.Errorf("mapping cost = %v", p.Now()-start)
		}
		m.Map(p) // idempotent: no extra cost
		if p.Now()-start != 4*MapCost {
			t.Error("second Map charged again")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	r, err := m.Route(0, 3)
	if err != nil || r.Hops != 1 {
		t.Errorf("route 0→3 = %+v, %v", r, err)
	}
	self, err := m.Route(2, 2)
	if err != nil || self.Hops != 0 {
		t.Errorf("self route = %+v, %v", self, err)
	}
	if m.NodeName(2) != "myri2" {
		t.Errorf("NodeName = %q", m.NodeName(2))
	}
}

func TestPortInterruptDisable(t *testing.T) {
	s, sys := newTestSystem(t, 2)
	pa, pb := openPair(t, sys, 2)
	interrupts := 0
	s.Spawn("recv", 0, func(p *sim.Proc) {
		p.SetInterruptHandler(func(p *sim.Proc, payload any) {
			interrupts++
			port := payload.(*Port)
			for port.TryPeek() {
				port.Poll(p)
			}
		})
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
		pb.ProvideReceiveBuffer(sys.Node(1).AllocBuffer(p, 4))
		pb.EnableInterrupt(p)
		p.Advance(2 * sim.Millisecond)
		pb.DisableInterrupt()
		p.Advance(3 * sim.Millisecond)
		// The second message arrived with interrupts off: poll manually.
		if !pb.TryPeek() {
			t.Error("message not queued after DisableInterrupt")
		}
		pb.Poll(p)
	})
	s.Spawn("send", 0, func(p *sim.Proc) {
		b := sys.Node(0).AllocBuffer(p, 4)
		p.Advance(sim.Millisecond)
		if err := pa.Send(p, 1, 2, b, 4, nil); err != nil {
			t.Fatal(err)
		}
		p.Advance(3 * sim.Millisecond) // past DisableInterrupt at 2ms
		if err := pa.Send(p, 1, 2, b, 4, nil); err != nil {
			t.Fatal(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if interrupts != 1 {
		t.Errorf("interrupts = %d, want 1", interrupts)
	}
}
