package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/gm"
	"repro/internal/myrinet"
	"repro/internal/substrate"
	"repro/internal/tmk"
	"repro/internal/trace"
)

// layerSnap holds the cumulative per-layer counters of one simulation at
// one instant; minus turns two of them into the timed section's share.
type layerSnap struct {
	counts    map[string]int64
	linkOcc   trace.Histogram // myrinet transmit-link occupancy, ns
	maxPinned int64           // GM registered-memory high-water, any node
}

// readLayers reads every layer's counters: tmk and substrate from each
// rank's Stats, gm from its ports, and the rest from the tracer's registry.
func (st *simState) readLayers() layerSnap {
	var ts tmk.Stats
	var ss substrate.Stats
	var ps gm.PortStats
	s := layerSnap{counts: make(map[string]int64)}
	for r := 0; r < st.n; r++ {
		tp := st.c.Proc(r)
		ts.Add(tp.Stats())
		ss.Add(tp.Transport().Stats())
		node := st.c.GM().Node(myrinet.NodeID(r))
		s.maxPinned = max(s.maxPinned, node.MaxPinnedBytes())
		for id := gm.MapperPort + 1; id < gm.NumPorts; id++ {
			if p := node.Port(id); p != nil {
				pst := p.Stats()
				ps.Sent += pst.Sent
				ps.Received += pst.Received
				ps.Parked += pst.Parked
			}
		}
	}
	reg := st.tracer.Metrics()
	n := func(key string) int64 {
		if c := reg.Lookup(key); c != nil {
			return c.N
		}
		return 0
	}
	sum := func(key string) int64 {
		if c := reg.Lookup(key); c != nil {
			return c.Sum
		}
		return 0
	}
	if h := reg.LookupHistogram(trace.LayerMyrinet + "/txlink.occupancy.ns"); h != nil {
		s.linkOcc = *h
	}
	for k, v := range map[string]int64{
		"tmk.read_faults":           ts.ReadFaults,
		"tmk.write_faults":          ts.WriteFaults,
		"tmk.page_fetches":          ts.PageFetches,
		"tmk.diff_requests":         ts.DiffRequestsSent,
		"tmk.diffs_created":         ts.DiffsCreated,
		"tmk.diff_bytes":            ts.DiffBytesCreated,
		"tmk.twins":                 ts.TwinsCreated,
		"tmk.lock_remote":           ts.LockAcquiresRemote,
		"tmk.barriers":              ts.Barriers,
		"tmk.fault_ns":              int64(ts.FaultTime),
		"tmk.lock_wait_ns":          int64(ts.LockWait),
		"tmk.barrier_wait_ns":       int64(ts.BarrierWait),
		"tmk.home_flushes":          ts.HomeFlushes,
		"tmk.home_flush_bytes":      ts.HomeFlushBytes,
		"tmk.home_fetches":          ts.HomeFetches,
		"substrate.requests":        ss.RequestsSent,
		"substrate.replies":         ss.RepliesSent,
		"substrate.bytes":           ss.BytesSent,
		"substrate.async_wakeups":   ss.AsyncWakeups,
		"substrate.reply_wait_ns":   int64(ss.ReplyWaitTime),
		"substrate.service_ns":      int64(ss.RequestService),
		"substrate.retransmits":     ss.Retransmits + ss.GMRetransmits + ss.VerbRetransmits,
		"substrate.send_buf_stalls": ss.SendBufStalls,
		"substrate.puts":            ss.OneSidedPuts,
		"substrate.gets":            ss.OneSidedGets,
		"substrate.put_bytes":       ss.OneSidedBytesPut,
		"gm.sends":                  ps.Sent,
		"gm.recvs":                  ps.Received,
		"gm.parked_frames":          ps.Parked,
		"myrinet.packets":           n(trace.LayerMyrinet + "/packets"),
		"myrinet.bytes":             sum(trace.LayerMyrinet + "/packets"),
		"sockets.datagrams":         n(trace.LayerSockets + "/datagrams.sent"),
		"sockets.sigio":             n(trace.LayerSockets + "/sigio"),
		"sockets.drops":             n(trace.LayerSockets + "/drops"),
		"sim.events":                n(trace.LayerSim + "/events"),
		"sim.interrupts":            n(trace.LayerSim + "/interrupts"),
	} {
		s.counts[k] = v
	}
	return s
}

// minus returns s − b for the counters and the histogram buckets; the
// pinned high-water and the histogram's max stay cumulative.
func (s *layerSnap) minus(b *layerSnap) *layerSnap {
	d := &layerSnap{counts: make(map[string]int64), linkOcc: s.linkOcc, maxPinned: s.maxPinned}
	for k, v := range s.counts {
		d.counts[k] = v - b.counts[k]
	}
	for i := range d.linkOcc.Buckets {
		d.linkOcc.Buckets[i] -= b.linkOcc.Buckets[i]
	}
	d.linkOcc.N -= b.linkOcc.N
	d.linkOcc.Sum -= b.linkOcc.Sum
	return d
}

// add accumulates another simulation's snapshot into s; a failed
// simulation has none.
func (s *layerSnap) add(o *layerSnap) {
	if o == nil {
		return
	}
	if s.counts == nil {
		s.counts = make(map[string]int64)
	}
	for k, v := range o.counts {
		s.counts[k] += v
	}
	for i := range s.linkOcc.Buckets {
		s.linkOcc.Buckets[i] += o.linkOcc.Buckets[i]
	}
	s.linkOcc.N += o.linkOcc.N
	s.linkOcc.Sum += o.linkOcc.Sum
	s.linkOcc.Max = max(s.linkOcc.Max, o.linkOcc.Max)
	s.maxPinned = max(s.maxPinned, o.maxPinned)
}

// cpuPackages are the packages whose self-sample share is reported, by
// the last element of their import path.
var cpuPackages = []string{"apps", "tmk", "fastgm", "udpgm", "rdmagm", "sockets", "gm", "myrinet", "msg", "sim", "runtime"}

// cpuShares summarises CPU profiles with the toolchain's pprof: the
// share of self samples in each of cpuPackages, in percent, plus the
// total sample count and the share of everything else. A run too short
// to be sampled has no shares.
func cpuShares(profiles ...string) (map[string]float64, int64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-sample_index=samples"}, profiles...)
	cmd := exec.Command("go", args...)
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, errb.String())
	}
	self := make(map[string]int64)
	var total int64
	inTable := false
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) > 0 && f[0] == "flat" {
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		v, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof line %q: %v", sc.Text(), err)
		}
		total += v
		self[funcPackage(strings.Join(f[5:], " "))] += v
	}
	shares := make(map[string]float64)
	known := int64(0)
	for _, p := range cpuPackages {
		shares[p] = 100 * ratio(self[p], total)
		known += self[p]
	}
	shares["other"] = 100 * ratio(total-known, total)
	return shares, total, nil
}

// funcPackage maps a symbol such as "repro/internal/tmk.(*Proc).Barrier"
// or "runtime.mallocgc" to its package's last path element.
func funcPackage(sym string) string {
	pkg := sym
	if i := strings.IndexAny(pkg, "[("); i >= 0 {
		pkg = pkg[:i] // receiver or type arguments may hold other paths
	}
	slash := strings.LastIndex(pkg, "/")
	if dot := strings.Index(pkg[slash+1:], "."); dot >= 0 {
		pkg = pkg[:slash+1+dot]
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return pkg[strings.LastIndex(pkg, "/")+1:]
}
