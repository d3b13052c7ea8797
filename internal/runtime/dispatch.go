package runtime

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/device"
	"repro/internal/dsl/ast"
	"repro/internal/dsl/check"
	"repro/internal/eventbus"
	"repro/internal/mapreduce"
	"repro/internal/registry"
	"repro/internal/simclock"
	"repro/internal/transport"
)

// periodicBatch is the payload delivered for one ungrouped periodic round
// (readings) or one grouped window (groups and their value columns, index
// for index). Both are freshly allocated per delivery and handed off to the
// handler, which may retain them.
type periodicBatch struct {
	readings []device.Reading
	groups   []string
	cols     [][]any
	at       time.Time
}

func (rt *Runtime) sourceTopic(ctxName string, idx int) string {
	return fmt.Sprintf("%ssource/%s/%d", rt.topicPrefix, ctxName, idx)
}

func (rt *Runtime) periodicTopic(ctxName string, idx int) string {
	return fmt.Sprintf("%speriodic/%s/%d", rt.topicPrefix, ctxName, idx)
}

// wireProvided wires one `when provided` interaction: a bus subscription for
// context-to-context arrows, or — for device sources — the sharded ingestion
// pipeline (see ingest.go) funneled through the bus topic. Grouped device
// sources route each event through the interaction's incremental aggregate
// (agg.go) so the handler sees a continuously maintained per-group state.
func (rt *Runtime) wireProvided(ctx *check.Context, idx int, in *check.Interaction) error {
	if in.TriggerKind == check.FromContext {
		err := rt.subscribe(rt.contextTopic(in.TriggerCtx.Name), func(ev eventbus.Event) {
			rt.dispatchContext(ctx, in, &ContextCall{
				ContextName:      ctx.Name,
				Interaction:      in,
				InteractionIndex: idx,
				Value:            ev.Payload,
				Time:             ev.Time,
				rt:               rt,
			})
		})
		return err
	}

	// One pre-classified call site per (kind, source) interaction: the
	// payload type is switched once per delivery, the handler is looked up
	// once per batch, and the ContextCall/Reading scratch is reused across
	// the whole batch — the bus serializes one subscription's handler, so
	// the scratch is single-writer (SNIPPETS.md snippet 1's
	// cache-everything-per-site idiom).
	cs := &provCallSite{rt: rt, ctx: ctx, in: in, idx: idx}
	onEvent := cs.onEvent
	if in.GroupBy != nil {
		pa, err := rt.newProvAgg(ctx, idx, in)
		if err != nil {
			return err
		}
		onEvent = func(ev eventbus.Event) {
			if b, ok := ev.Payload.(*device.ReadingBatch); ok {
				pa.onBatch(b)
			}
		}
	}

	topic := rt.sourceTopic(ctx.Name, idx)
	// The ingestion workers publish whole bursts; a deeper queue lets them
	// run ahead of the handler within the interaction's qos budget instead
	// of blocking after the default 64 events.
	if err := rt.subscribe(topic, onEvent, eventbus.WithQueue(sourceTopicQueue)); err != nil {
		return err
	}
	ing := rt.newIngestor(topic)
	// Index the pipeline by (kind, source) so federation peers can land
	// forwarded batches for this interaction through RemoteIngest.
	rt.mu.Lock()
	key := ingestKey(in.TriggerDevice.Name, in.TriggerSource.Name)
	rt.ingestByKey[key] = append(rt.ingestByKey[key], ing)
	rt.mu.Unlock()
	return rt.trackDeviceSource(in.TriggerDevice.Name, in.TriggerSource.Name, ing)
}

// sourceTopicQueue is the bus queue depth of one device-source topic.
const sourceTopicQueue = 1024

// provCallSite is the dispatch call site of one ungrouped `when provided`
// device interaction. All of its state is touched only from the owning bus
// subscription's drain goroutine, so the call scratch is reused across
// events with zero allocation: a typed ReadingBatch row is materialized
// into scratch (boxing bool values is free), handed to the handler through
// the reused ContextCall, and routed. Handlers borrow the call — retaining
// it or the Reading past OnTrigger's return is a contract violation (the
// same borrow rule as the batch payload itself).
type provCallSite struct {
	rt  *Runtime
	ctx *check.Context
	in  *check.Interaction
	idx int

	scratch device.Reading
	call    ContextCall
}

func (cs *provCallSite) onEvent(ev eventbus.Event) {
	if b, ok := ev.Payload.(*device.ReadingBatch); ok {
		cs.dispatchBatch(b)
	}
}

// dispatchBatch runs the handler once per row with the handler cached for
// the whole batch — the typed fast path of the storm benchmarks.
func (cs *provCallSite) dispatchBatch(b *device.ReadingBatch) {
	rt := cs.rt
	n := b.Len()
	rt.stats.contextTriggers.Add(uint64(n))
	h := rt.contextHandler(cs.ctx.Name)
	if h == nil {
		return
	}
	for i := 0; i < n; i++ {
		b.FillRow(i, &cs.scratch)
		cs.fillCall()
		value, want, err := h.OnTrigger(&cs.call)
		if err != nil {
			rt.reportError(cs.ctx.Name, err)
			continue
		}
		rt.routePublish(cs.ctx, cs.in, value, want)
	}
}

func (cs *provCallSite) fillCall() {
	cs.call = ContextCall{
		ContextName:      cs.ctx.Name,
		Interaction:      cs.in,
		InteractionIndex: cs.idx,
		Reading:          &cs.scratch,
		Time:             cs.scratch.Time,
		rt:               cs.rt,
	}
}

// poller drives one `when periodic` interaction. Steady-state work is
// proportional to fleet size only in queries issued, not in bookkeeping: the
// fleet snapshot is cached across ticks (keyed on the registry's kind
// generation), device IDs, drivers and group indices are resolved at
// snapshot-rebuild time, queries run on a persistent worker pool, and the
// per-slot value/ok columns are reused across rounds.
type poller struct {
	rt       *Runtime
	ctx      *check.Context
	in       *check.Interaction
	idx      int
	stopCh   chan struct{}
	stopOnce sync.Once

	// Grouped batch rounds accumulate into win, which flushes every
	// flushEvery ticks: the `every` window's length, or 1 for a grouped
	// interaction aggregated round by round in batch.
	win        window
	flushEvery int

	// snap is the cached fleet snapshot; only the poller goroutine reads
	// or replaces it.
	snap *pollSnapshot

	// Incremental aggregation (grouped interactions without an `every`
	// window): the poll loop diffs each round's readings against the
	// per-slot last-value cache below and publishes only the deltas; the
	// dispatch side folds them into the interaction's engine (core). The
	// cache describes prevSnap — a rebuild (fleet change) invalidates it
	// and the next delta resets the engine and re-feeds the full round.
	aggOn    bool
	prevVals []any
	prevOk   []bool
	prevSnap *pollSnapshot
	core     *aggCore // owned by the dispatch (bus-handler) side

	// Persistent query pool: up to workers goroutines block on rounds and
	// work-steal targets through the round's cursors. The pool grows
	// lazily with the snapshot's work units (started counts live workers),
	// so small fleets never park 32 idle goroutines.
	workers int
	started int
	rounds  chan *pollRound

	// Scratch reused across rebuilds/rounds; poller goroutine only,
	// except vals/ok which the pool workers fill during a round. Nothing
	// published to the bus aliases them.
	scanBuf []scanItem
	vals    []any
	ok      []bool
}

func (rt *Runtime) startPoller(ctx *check.Context, idx int, in *check.Interaction) {
	p := &poller{
		rt:      rt,
		ctx:     ctx,
		in:      in,
		idx:     idx,
		stopCh:  make(chan struct{}),
		workers: rt.pollWorkers,
		win:     window{col: make(map[string]int)},
	}
	// Incremental aggregation applies to grouped interactions polled round
	// by round; `every` windows concatenate several rounds per delivery
	// (the same device contributes one value per tick), which is a batch
	// semantic, so they keep the batch lowering. The checker guarantees an
	// `every` window is grouped.
	switch {
	case in.Every > 0:
		p.flushEvery = int(in.Every / in.Period)
	case in.GroupBy != nil && rt.batchAgg:
		p.flushEvery = 1
	case in.GroupBy != nil:
		p.aggOn = true
	}
	// Deliver batches through the bus so handler invocations for this
	// interaction are serialized like every other delivery.
	if err := rt.subscribe(rt.periodicTopic(ctx.Name, idx), func(ev eventbus.Event) {
		switch batch := ev.Payload.(type) {
		case periodicBatch:
			p.dispatch(batch)
		case aggDelta:
			p.dispatchDelta(batch)
		}
	}); err != nil {
		rt.reportError(ctx.Name, err)
		return
	}
	rt.mu.Lock()
	rt.pollers = append(rt.pollers, p)
	rt.mu.Unlock()

	p.rounds = make(chan *pollRound, p.workers)

	// Arm the ticker before Start returns so that virtual-clock advances
	// performed right after Start are observed.
	ticker := rt.clock.NewTicker(in.Period)
	rt.wg.Add(1)
	go p.run(ticker)
}

func (p *poller) stop() { p.stopOnce.Do(func() { close(p.stopCh) }) }

func (p *poller) run(ticker *simclock.Ticker) {
	defer p.rt.wg.Done()
	defer ticker.Stop()
	for {
		select {
		case <-p.stopCh:
			// Deliver a partially accumulated window, so readings gathered
			// before Stop are not silently discarded. The bus drains queued
			// deliveries before closing, which keeps the flush ordered after
			// every full window already published.
			if slices.ContainsFunc(p.win.cols, func(col []any) bool { return len(col) > 0 }) {
				p.publishWindow(p.rt.clock.Now())
			}
			return
		case at := <-ticker.C:
			p.poll(at)
		}
	}
}

// window accumulates the grouped rounds of one flush period as one value
// column per group; it stores no device ID, source or time per reading.
// Columns are sized up front to members × remaining ticks, so a steady
// fleet never regrows them, and are handed off at flush — never reused —
// so handlers may retain what they were given.
type window struct {
	groups []string
	cols   [][]any
	col    map[string]int // group -> index in groups/cols
	ticks  int
	// colOf translates snap's group indices to columns; rebuilt when the
	// snapshot changes mid-window or a new window starts.
	snap  *pollSnapshot
	colOf []int
}

// gather appends one round's answered slots to their group columns.
func (p *poller) gather(snap *pollSnapshot) {
	w := &p.win
	if w.snap != snap {
		w.snap = snap
		w.colOf = w.colOf[:0]
		for g, name := range snap.groups {
			c, ok := w.col[name]
			if !ok {
				c = len(w.cols)
				w.col[name] = c
				w.groups = append(w.groups, name)
				w.cols = append(w.cols, make([]any, 0, snap.members[g]*(p.flushEvery-w.ticks)))
			}
			w.colOf = append(w.colOf, c)
		}
	}
	for slot, good := range p.ok[:snap.total] {
		if good {
			c := w.colOf[snap.groupOf[slot]]
			w.cols[c] = append(w.cols[c], p.vals[slot])
		}
	}
	w.ticks++
}

// publishWindow hands the window's non-empty columns to the bus and starts
// a fresh window.
func (p *poller) publishWindow(at time.Time) {
	w := &p.win
	batch := periodicBatch{at: at}
	for c, col := range w.cols {
		if len(col) > 0 {
			batch.groups = append(batch.groups, w.groups[c])
			batch.cols = append(batch.cols, col)
		}
	}
	w.groups, w.cols, w.ticks, w.snap = nil, nil, 0, nil
	clear(w.col)
	p.publish(batch, at)
}

func (p *poller) publish(payload any, at time.Time) {
	// Publish fails only once the bus is closed, when there is no one
	// left to deliver to.
	_ = p.rt.bus.Publish(p.rt.periodicTopic(p.ctx.Name, p.idx), payload, at)
}

// scanItem is what one registry-scan visit captures during a snapshot
// rebuild.
type scanItem struct {
	id       string
	endpoint string
	group    string
}

// pollTarget is one locally bound device of the snapshot, with its driver —
// and, when the driver supports it, its pre-resolved query function —
// already in hand so a steady-state tick touches no runtime lock.
type pollTarget struct {
	slot  uint32
	drv   device.Driver
	query device.QueryFunc // fast path via device.SnapshotQuerier; may be nil
}

// endpointBatch is every remote device of the snapshot reachable through one
// endpoint; a round answers all of them with a single QueryBatch round trip.
type endpointBatch struct {
	client   *transport.Client
	endpoint string
	ids      []string
	slots    []uint32 // slot of each of ids
}

// pollSnapshot is the cached fleet of one periodic interaction, valid while
// the registry generation for the trigger kind stays at gen. Slots number
// the fleet in device-ID order; everything per slot is resolved once per
// rebuild. A slot whose endpoint could not be dialed is never answered.
type pollSnapshot struct {
	gen     uint64
	locals  []pollTarget
	remotes []endpointBatch
	total   int
	// ids maps slots to device IDs.
	ids []string
	// Grouped interactions only: the interned `grouped by` values, each
	// slot's index into groups, and each group's slot count.
	groups  []string
	groupOf []uint32
	members []int
	// incomplete marks a snapshot missing targets whose endpoint could
	// not be dialed; the next tick rebuilds (and so redials) even with an
	// unchanged generation, matching the old per-round retry behavior.
	incomplete bool
}

// poll queries every bound device of the trigger kind through the worker
// pool and either delivers the round immediately or accumulates it into the
// window. With an unchanged fleet this performs no registry scan, no sort
// and no target allocation — the generation check is the only registry
// interaction. Incrementally aggregated interactions publish the round's
// per-slot diff (changed values + dropped-out slots) instead of the full
// round.
func (p *poller) poll(at time.Time) {
	gen := p.rt.reg.Generation(p.in.TriggerDevice.Name)
	if p.snap == nil || p.snap.gen != gen || p.snap.incomplete {
		p.rebuild(gen)
	}
	snap := p.snap

	if snap.total > 0 && !p.runRound(snap) {
		return // stopped mid-round
	}
	p.rt.stats.periodicPolls.Add(1)

	switch {
	case p.aggOn:
		p.publishDelta(at, snap)
	case p.flushEvery > 0:
		p.gather(snap)
		if p.win.ticks == p.flushEvery {
			p.publishWindow(at)
		}
	default:
		p.publish(periodicBatch{readings: p.readings(snap, at), at: at}, at)
	}
}

// readings materializes an ungrouped round in one pass, sized to the fleet.
func (p *poller) readings(snap *pollSnapshot, at time.Time) []device.Reading {
	rs := make([]device.Reading, 0, snap.total)
	for slot, good := range p.ok[:snap.total] {
		if good {
			rs = append(rs, device.Reading{DeviceID: snap.ids[slot], Source: p.in.TriggerSource.Name, Value: p.vals[slot], Time: at})
		}
	}
	return rs
}

// runRound executes one query round over the snapshot through the worker
// pool, filling p.vals/p.ok per slot. It reports false when the poller
// stopped before the round completed.
func (p *poller) runRound(snap *pollSnapshot) bool {
	p.vals = slices.Grow(p.vals[:0], snap.total)[:snap.total]
	p.ok = slices.Grow(p.ok[:0], snap.total)[:snap.total]
	clear(p.ok)
	round := &pollRound{
		p:      p,
		snap:   snap,
		source: p.in.TriggerSource.Name,
		vals:   p.vals,
		ok:     p.ok,
		done:   make(chan struct{}),
	}
	// Hand the round to at most one worker per unit of work (remote
	// batches + local targets) so small fleets don't wake the whole
	// pool for one query's worth of polling; grow the pool to match.
	// p.rt.wg stays >0 for the poller's own goroutine while poll
	// runs, so Add here cannot race a Stop-side Wait reaching zero.
	hands := len(snap.remotes) + len(snap.locals)
	if hands > p.workers {
		hands = p.workers
	}
	for p.started < hands {
		p.rt.wg.Add(1)
		go p.worker()
		p.started++
	}
	round.pending.Store(int64(hands))
	for i := 0; i < hands; i++ {
		select {
		case p.rounds <- round:
		case <-p.stopCh:
			return false
		}
	}
	select {
	case <-round.done:
	case <-p.stopCh:
		return false
	}
	return true
}

// aggDelta is the payload of one incrementally aggregated round, as slots of
// snap: the values that changed since the previous round, the slots that
// answered last round but not this one, and whether the dispatch-side
// engine must reset first (snapshot rebuilt: slots renumbered, fleet
// membership changed — the whole round rides in upserts).
type aggDelta struct {
	snap     *pollSnapshot
	upserts  []slotValue
	removals []uint32
	reset    bool
	at       time.Time
}

// slotValue is one snapshot slot's answered value.
type slotValue struct {
	slot uint32
	v    any
}

// publishDelta diffs the round against the per-slot last-value cache and
// publishes only what changed. A steady fleet with unchanged readings
// publishes an empty delta — the dispatch side still flushes (cheaply, no
// dirty groups) and triggers the handler, preserving one delivery per
// period.
func (p *poller) publishDelta(at time.Time, snap *pollSnapshot) {
	d := aggDelta{snap: snap, reset: p.prevSnap != snap, at: at}
	if d.reset {
		p.prevVals = slices.Grow(p.prevVals[:0], snap.total)[:snap.total]
		p.prevOk = slices.Grow(p.prevOk[:0], snap.total)[:snap.total]
		clear(p.prevVals)
		clear(p.prevOk)
		p.prevSnap = snap
		d.upserts = make([]slotValue, 0, snap.total)
	}
	vals := p.vals[:snap.total]
	for i, good := range p.ok[:snap.total] {
		if good {
			if !p.prevOk[i] || !valuesEqual(p.prevVals[i], vals[i]) {
				d.upserts = append(d.upserts, slotValue{uint32(i), vals[i]})
				p.prevVals[i] = vals[i]
				p.prevOk[i] = true
			}
		} else if p.prevOk[i] {
			// Answered last round, failed this one: its value drops out of
			// the aggregate until it answers again, matching the batch
			// path's per-round membership.
			d.removals = append(d.removals, uint32(i))
			p.prevOk[i] = false
			p.prevVals[i] = nil
		}
	}
	p.publish(d, at)
}

// valuesEqual reports whether two reading values are equal: Go equality
// for values of one comparable dynamic type (DSL enums generate named
// `type X string`), instant equality for times. nil and non-comparable
// values (slices, maps) report false — treated as changed, which keeps the
// delta path conservative rather than wrong.
func valuesEqual(a, b any) bool {
	if at, ok := a.(time.Time); ok {
		bt, ok := b.(time.Time)
		return ok && at.Equal(bt)
	}
	ta := reflect.TypeOf(a)
	return ta != nil && ta == reflect.TypeOf(b) && ta.Comparable() && a == b
}

// dispatchDelta folds one round's delta into the interaction's engine and
// dispatches the handler with the updated aggregate. Runs on the bus
// handler goroutine, serialized with every other delivery of this
// interaction.
func (p *poller) dispatchDelta(d aggDelta) {
	if p.core == nil {
		core, err := newAggCore(p.rt, p.ctx.Name, p.in)
		if err != nil {
			p.rt.reportError(p.ctx.Name, err)
			return
		}
		p.core = core
	}
	if d.reset {
		p.core.reset()
	}
	snap := d.snap
	for _, u := range d.upserts {
		p.core.eng.Upsert(snap.ids[u.slot], snap.groups[snap.groupOf[u.slot]], u.v)
	}
	for _, slot := range d.removals {
		p.core.eng.Remove(snap.ids[slot])
	}
	reduced, grouped := p.core.flush()
	call := &ContextCall{
		ContextName:      p.ctx.Name,
		Interaction:      p.in,
		InteractionIndex: p.idx,
		Time:             d.at,
		GroupedReduced:   reduced,
		Grouped:          grouped,
		rt:               p.rt,
	}
	p.rt.dispatchContext(p.ctx, p.in, call)
}

// rebuild rescans the registry and rebuilds the fleet snapshot: locals carry
// their resolved driver (and pre-resolved querier where supported), remotes
// are grouped per endpoint around the cached transport client. gen is the
// generation observed before the scan, so any mutation racing the scan moves
// the generation past it and forces a rebuild on the next tick.
func (p *poller) rebuild(gen uint64) {
	groupAttr := ""
	if p.in.GroupBy != nil {
		groupAttr = p.in.GroupBy.Name
	}
	items := p.scanBuf[:0]
	p.rt.reg.Scan(registry.Query{Kind: p.in.TriggerDevice.Name}, func(e registry.Entity) bool {
		items = append(items, scanItem{
			id:       string(e.ID),
			endpoint: e.Endpoint,
			group:    e.Attrs[groupAttr],
		})
		return true
	})
	// Scan visits in shard order; restore ID order so reading positions —
	// and therefore the value order MapReduce presents to reducers — stay
	// deterministic across rounds and rebuilds.
	sort.Slice(items, func(i, j int) bool { return items[i].id < items[j].id })
	p.scanBuf = items

	snap := &pollSnapshot{gen: gen, total: len(items), ids: make([]string, len(items))}
	source := p.in.TriggerSource.Name
	drvs := make([]device.Driver, len(items))
	for i := range items {
		snap.ids[i] = items[i].id
	}
	p.rt.fleet.resolve(snap.ids, drvs)

	var remoteIdx map[string]int // endpoint -> snap.remotes index
	for i := range items {
		it := &items[i]
		if drv := drvs[i]; drv != nil {
			t := pollTarget{slot: uint32(i), drv: drv}
			if sq, ok := drv.(device.SnapshotQuerier); ok {
				if q, err := sq.Querier(source); err == nil {
					t.query = q
				}
			}
			snap.locals = append(snap.locals, t)
			continue
		}
		cli, err := p.rt.clientFor(it.id, it.endpoint)
		if err != nil {
			p.rt.reportError("poll:"+it.id, err)
			snap.incomplete = true
			continue
		}
		if remoteIdx == nil {
			remoteIdx = make(map[string]int)
		}
		bi, ok := remoteIdx[it.endpoint]
		if !ok {
			bi = len(snap.remotes)
			remoteIdx[it.endpoint] = bi
			snap.remotes = append(snap.remotes, endpointBatch{client: cli, endpoint: it.endpoint})
		}
		eb := &snap.remotes[bi]
		eb.ids = append(eb.ids, it.id)
		eb.slots = append(eb.slots, uint32(i))
	}
	if p.in.GroupBy != nil {
		snap.groupOf = make([]uint32, len(items))
		index := make(map[string]uint32)
		for i := range items {
			g, ok := index[items[i].group]
			if !ok {
				g = uint32(len(snap.groups))
				index[items[i].group] = g
				snap.groups = append(snap.groups, items[i].group)
				snap.members = append(snap.members, 0)
			}
			snap.groupOf[i] = g
			snap.members[g]++
		}
	}
	p.snap = snap
	p.rt.stats.pollSnapshotRebuilds.Add(1)
}

// pollRound is one tick's unit of pool work: workers drain the remote
// batches, then the local targets, through shared cursors, writing each
// answered slot's value and ok flag. pending counts outstanding worker
// hand-offs; the last one closes done.
type pollRound struct {
	p      *poller
	snap   *pollSnapshot
	source string
	vals   []any
	ok     []bool

	localCur  atomic.Int64
	remoteCur atomic.Int64
	pending   atomic.Int64
	done      chan struct{}
}

func (p *poller) worker() {
	defer p.rt.wg.Done()
	for {
		select {
		case <-p.stopCh:
			return
		case r := <-p.rounds:
			r.work()
			if r.pending.Add(-1) == 0 {
				close(r.done)
			}
		}
	}
}

func (r *pollRound) work() {
	snap := r.snap
	for {
		i := int(r.remoteCur.Add(1)) - 1
		if i >= len(snap.remotes) {
			break
		}
		r.queryBatch(&snap.remotes[i])
	}
	for {
		i := int(r.localCur.Add(1)) - 1
		if i >= len(snap.locals) {
			break
		}
		t := &snap.locals[i]
		var v any
		var err error
		if t.query != nil {
			v, err = t.query()
		} else {
			v, err = t.drv.Query(r.source)
		}
		if err != nil {
			r.p.rt.reportError("poll:"+snap.ids[t.slot], err)
			continue
		}
		r.vals[t.slot] = v
		r.ok[t.slot] = true
	}
}

// remoteBatchChunk bounds one QueryBatch request. Chunking keeps each
// request within the transport's per-call timeout regardless of fleet size,
// and lets the server interleave other requests (actuations, subscribes) on
// the shared connection between chunks instead of stalling behind one
// endpoint-wide batch.
const remoteBatchChunk = 256

// queryBatch answers every device of one remote endpoint in
// remoteBatchChunk-sized round trips.
func (r *pollRound) queryBatch(b *endpointBatch) {
	for lo := 0; lo < len(b.ids); lo += remoteBatchChunk {
		hi := lo + remoteBatchChunk
		if hi > len(b.ids) {
			hi = len(b.ids)
		}
		vals, errs, err := b.client.QueryBatch(b.ids[lo:hi], r.source)
		if err != nil {
			// One failed chunk loses only its own devices this round;
			// the remaining chunks are still attempted, preserving the
			// old per-device failure isolation (at chunk granularity).
			r.p.rt.reportError("poll:"+b.endpoint, err)
			continue
		}
		for i := lo; i < hi; i++ {
			if j := i - lo; j < len(errs) && errs[j] != "" {
				r.p.rt.reportError("poll:"+b.ids[i], errors.New(errs[j]))
				continue
			}
			var v any
			if j := i - lo; j < len(vals) {
				v = vals[j]
			}
			r.vals[b.slots[i]] = v
			r.ok[b.slots[i]] = true
		}
	}
}

// dispatch runs the context handler for one periodic batch, applying the
// MapReduce lowering when declared.
func (p *poller) dispatch(batch periodicBatch) {
	call := &ContextCall{
		ContextName:      p.ctx.Name,
		Interaction:      p.in,
		InteractionIndex: p.idx,
		Readings:         batch.readings,
		Time:             batch.at,
		rt:               p.rt,
	}
	switch {
	case p.in.MapType != nil: // implies GroupBy
		call.GroupedReduced = p.runMapReduce(batch)
	case p.in.GroupBy != nil:
		call.Grouped = make(map[string][]any, len(batch.groups))
		for i, g := range batch.groups {
			call.Grouped[g] = batch.cols[i]
		}
	}
	p.rt.dispatchContext(p.ctx, p.in, call)
}

// runMapReduce lowers the grouped batch onto the MapReduce engine using the
// handler's Map and Reduce phases (paper Figure 10). The input is the
// window's columns concatenated group by group, each in round order. When
// Reduce emits several values for one key, the last emission wins, matching
// the paper's one-value-per-group framework contract.
func (p *poller) runMapReduce(batch periodicBatch) map[string]any {
	h := p.rt.contextHandler(p.ctx.Name)
	mr, ok := h.(MapReducer)
	if !ok {
		p.rt.reportError(p.ctx.Name, fmt.Errorf("handler does not implement MapReducer"))
		return nil
	}
	n := 0
	for _, col := range batch.cols {
		n += len(col)
	}
	in := make([]mapreduce.Pair[string, any], 0, n)
	for i, g := range batch.groups {
		for _, v := range batch.cols[i] {
			in = append(in, mapreduce.Pair[string, any]{Key: g, Value: v})
		}
	}
	pairs := mapreduce.Run(in,
		func(k string, v any, emit func(string, any)) { mr.Map(k, v, emit) },
		func(k string, vs []any, emit func(string, any)) { mr.Reduce(k, vs, emit) },
		p.rt.mrCfg,
	)
	out := make(map[string]any, len(pairs))
	for _, pr := range pairs {
		out[pr.Key] = pr.Value
	}
	return out
}

// dispatchContext invokes the context handler and routes its output
// according to the declared publish mode.
func (rt *Runtime) dispatchContext(ctx *check.Context, in *check.Interaction, call *ContextCall) {
	rt.stats.contextTriggers.Add(1)
	h := rt.contextHandler(ctx.Name)
	if h == nil {
		return
	}
	value, wantPublish, err := h.OnTrigger(call)
	if err != nil {
		rt.reportError(ctx.Name, err)
		return
	}
	rt.routePublish(ctx, in, value, wantPublish)
}

// routePublish applies the interaction's declared publish mode to one
// handler result.
func (rt *Runtime) routePublish(ctx *check.Context, in *check.Interaction, value any, wantPublish bool) {
	switch in.Publish {
	case ast.AlwaysPublish:
		rt.publishContext(ctx, value)
	case ast.MaybePublish:
		if wantPublish {
			rt.publishContext(ctx, value)
		}
	case ast.NoPublish:
		// Internal state update only.
	}
}

// GroupKeys returns the sorted group keys of a grouped delivery; a helper
// for deterministic iteration in handlers and reports.
func GroupKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
