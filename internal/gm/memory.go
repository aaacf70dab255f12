package gm

import (
	"fmt"

	"repro/internal/sim"
)

// PageSize is the host page size used for pin accounting.
const PageSize = 4096

// Memory is a registered (pinned) memory region. GM can only send from
// and receive into registered memory; registration costs virtual time and
// counts against the node's pinned-byte budget, the resource the paper's
// rendezvous option conserves. A region is an accounting record: it holds
// no bytes itself. The Buffers carved from it get host storage the first
// time they are touched (Buffer.Bytes), so host memory follows the bytes
// actually moved rather than the bytes the model pins.
type Memory struct {
	node       *Node
	size       int
	registered bool
}

// Registered reports whether the region is currently pinned.
func (m *Memory) Registered() bool { return m.registered }

// Deregister unpins the region, charging the (cheaper) unpin cost.
func (m *Memory) Deregister(p *sim.Proc) {
	if !m.registered {
		return
	}
	m.registered = false
	m.node.pinnedBytes -= int64(m.size)
	pages := (m.size + PageSize - 1) / PageSize
	p.Advance(m.node.sys.params.RegisterBase + sim.Time(pages)*m.node.sys.params.RegisterPerPage/2)
}

// Register pins a fresh region of the given size on the node, charging
// registration cost to the calling process.
func (n *Node) Register(p *sim.Proc, size int) *Memory {
	if size < 0 {
		panic(fmt.Sprintf("gm: Register(%d)", size))
	}
	pages := (size + PageSize - 1) / PageSize
	p.Advance(n.sys.params.RegisterBase + sim.Time(pages)*n.sys.params.RegisterPerPage)
	m := &Memory{node: n, size: size, registered: true}
	n.pinnedBytes += int64(size)
	if n.pinnedBytes > n.maxPinnedBytes {
		n.maxPinnedBytes = n.pinnedBytes
	}
	return m
}

// RegisterAtBoot pins a region without charging any process — used for
// memory the kernel pins once at boot (the Sockets-GM kernel pools).
func (n *Node) RegisterAtBoot(size int) *Memory {
	m := &Memory{node: n, size: size, registered: true}
	n.pinnedBytes += int64(size)
	if n.pinnedBytes > n.maxPinnedBytes {
		n.maxPinnedBytes = n.pinnedBytes
	}
	return m
}

// PinnedBytes returns the node's currently pinned byte count.
func (n *Node) PinnedBytes() int64 { return n.pinnedBytes }

// MaxPinnedBytes returns the high-water mark of pinned bytes on the node,
// used by the rendezvous ablation (E5) to compare memory footprints.
func (n *Node) MaxPinnedBytes() int64 { return n.maxPinnedBytes }

// Buffer is a send or receive buffer carved from registered memory, tagged
// with its size class. Its storage is nil until first touched.
type Buffer struct {
	mem   *Memory
	class int
	data  []byte
}

// Class returns the buffer's size class.
func (b *Buffer) Class() int { return b.class }

// Bytes exposes the buffer's storage (len = cap = 2^class), allocating
// it zeroed on the first call and returning the same slice thereafter.
func (b *Buffer) Bytes() []byte {
	if b.data == nil {
		b.data = make([]byte, ClassCapacity(b.class))
	}
	return b.data
}

// AllocBuffer registers and returns a buffer of the given size class.
func (n *Node) AllocBuffer(p *sim.Proc, class int) *Buffer {
	if class < n.sys.params.MinClass || class > n.sys.params.MaxClass {
		panic(fmt.Sprintf("gm: AllocBuffer class %d out of range", class))
	}
	return &Buffer{mem: n.Register(p, ClassCapacity(class)), class: class}
}

// SubBuffer carves a buffer of the given class out of an existing
// registered region at the given offset, without further registration
// cost. Used to slice one large registered pool into many buffers. Each
// buffer has its own storage: buffers of one region never alias.
func (m *Memory) SubBuffer(off, class int) *Buffer {
	if off < 0 || off+ClassCapacity(class) > m.size {
		panic("gm: SubBuffer out of range")
	}
	if !m.registered {
		panic("gm: SubBuffer of deregistered memory")
	}
	return &Buffer{mem: m, class: class}
}
