package transport

import (
	"fmt"
	"sort"

	"ballsintoleaves/internal/adversary"
	"ballsintoleaves/internal/proto"
)

// Summary is the system-wide outcome a transport's server side (the
// loopback hub or the TCP coordinator) collects. Its fields deliberately
// mirror sim.Result so cross-engine equivalence assertions are direct
// comparisons.
type Summary struct {
	// Rounds is the number of rounds executed until every participant had
	// halted or crashed.
	Rounds int
	// Decisions holds the reported decisions of correct (never crashed)
	// participants, in ascending ID order.
	Decisions []proto.Decision
	// Crashed lists crashed participants in crash order.
	Crashed []proto.ID
	// Messages and Bytes count deliveries, excluding a process hearing its
	// own broadcast — the same accounting as the simulation engines.
	Messages int64
	Bytes    int64
}

// NetConfig parameterizes a transport-level network (loopback or TCP
// coordinator): which adversary injects crashes and under what budget.
type NetConfig struct {
	// Adversary plans mid-broadcast crashes each round; nil means
	// failure-free. Strategies observe rounds through adversary.RoundView
	// exactly as on the simulation engines. BallInfo introspection works
	// in-process (RunAll over processes that implement Info); across a
	// real network Info always reports false, so depth-targeting
	// strategies degrade to no-ops over TCP.
	Adversary adversary.Strategy
	// Budget caps total crashes (the model's t). Zero means n-1.
	Budget int
}

// introspector is the optional in-process surface behind RoundView.Info
// (core.Ball implements it).
type introspector interface {
	Info() adversary.BallInfo
}

// memberStatus tracks one participant through the run.
type memberStatus uint8

const (
	memberLive memberStatus = iota
	memberHalted
	memberCrashed
)

// fabric is the round-closing engine shared by the loopback hub and the
// TCP coordinator: given every live member's payload for a round, it
// applies the adversary's crash plan with the exact semantics of
// sim.Engine.step and produces each member's delivery list. It is not
// safe for concurrent use; callers serialize access.
type fabric struct {
	members []proto.ID // ascending
	index   map[proto.ID]int
	status  []memberStatus
	adv     adversary.Strategy
	budget  int

	round    int
	payloads [][]byte

	// intro exposes in-process members' state to RoundView.Info, indexed
	// like members. RunAll fills it from processes that implement
	// introspector; over TCP every entry stays nil and Info reports false.
	intro []introspector

	decisions []proto.Decision
	crashed   []proto.ID
	messages  int64
	bytes     int64
}

// newFabric validates and sorts the member set. Members must be distinct
// and non-zero.
func newFabric(members []proto.ID, cfg NetConfig) (*fabric, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("transport: no members")
	}
	sorted := make([]proto.ID, len(members))
	copy(sorted, members)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	index := make(map[proto.ID]int, len(sorted))
	for i, id := range sorted {
		if id == 0 {
			return nil, fmt.Errorf("transport: member IDs must be non-zero")
		}
		if _, dup := index[id]; dup {
			return nil, fmt.Errorf("transport: duplicate member ID %v", id)
		}
		index[id] = i
	}
	adv := cfg.Adversary
	if adv == nil {
		adv = adversary.None{}
	}
	budget := cfg.Budget
	if budget <= 0 {
		budget = len(sorted) - 1
	}
	return &fabric{
		members:  sorted,
		index:    index,
		status:   make([]memberStatus, len(sorted)),
		adv:      adv,
		budget:   budget,
		payloads: make([][]byte, len(sorted)),
		intro:    make([]introspector, len(sorted)),
	}, nil
}

// active reports whether any member is still live.
func (f *fabric) active() bool {
	for _, st := range f.status {
		if st == memberLive {
			return true
		}
	}
	return false
}

// halt records a member's clean sign-off and its decision. Crashed members
// cannot halt (their sign-off never arrives); repeated halts are ignored.
func (f *fabric) halt(idx int, h Halt) {
	if f.status[idx] != memberLive {
		return
	}
	f.status[idx] = memberHalted
	if h.Decided {
		f.decisions = append(f.decisions, proto.Decision{
			ID:    f.members[idx],
			Name:  h.Name,
			Round: h.DecidedRound,
		})
	}
}

// crash force-crashes a member outside the adversary's plan — the TCP
// coordinator calls it when a connection drops before the round's payload
// arrived. Real failures cannot be prevented, so the budget floors at zero
// rather than gating them.
func (f *fabric) crash(idx int) {
	if f.status[idx] != memberLive {
		return
	}
	f.status[idx] = memberCrashed
	f.crashed = append(f.crashed, f.members[idx])
	if f.budget > 0 {
		f.budget--
	}
}

// step closes one round: payloads[i] is member i's broadcast (nil for
// members that are halted, crashed, or failed to broadcast — the latter
// are crashed with nothing delivered). It consults the adversary, applies
// its crash plan with sim's semantics, and returns each member's delivery
// list (nil for non-live members) plus the IDs crashed during this round
// in crash order.
func (f *fabric) step(round int, payloads [][]byte) (deliveries [][]proto.Message, crashedNow []proto.ID) {
	f.round = round
	copy(f.payloads, payloads)
	preCrashed := len(f.crashed)

	// Members that should have broadcast but did not are crashed before the
	// adversary plans, with no final message (their payload never arrived).
	for i, st := range f.status {
		if st == memberLive && payloads[i] == nil {
			f.crash(i)
		}
	}

	// Adversary half: plan mid-broadcast crashes with full payload
	// visibility, exactly as in sim.Engine.step.
	view := &fabricView{fab: f}
	specs := f.adv.Plan(view)
	delivered := make(map[int]func(proto.ID) bool, len(specs))
	for _, spec := range specs {
		idx, ok := f.index[spec.Victim]
		if !ok || f.status[idx] != memberLive || f.budget == 0 {
			continue
		}
		if _, dup := delivered[idx]; dup {
			continue
		}
		f.budget--
		f.status[idx] = memberCrashed
		f.crashed = append(f.crashed, spec.Victim)
		deliver := spec.Deliver
		if deliver == nil {
			deliver = adversary.DeliverNone
		}
		delivered[idx] = deliver
	}

	// Deliver half: every surviving member receives the round's payloads in
	// ascending sender order, always including its own; a crashing sender's
	// final payload reaches only the recipients its delivery predicate
	// selects.
	senders := 0
	for _, payload := range f.payloads {
		if payload != nil {
			senders++
		}
	}
	deliveries = make([][]proto.Message, len(f.members))
	if len(delivered) == 0 {
		f.deliverShared(deliveries, senders)
		return deliveries, f.crashed[preCrashed:]
	}
	for i, st := range f.status {
		if st != memberLive {
			continue
		}
		msgs := make([]proto.Message, 0, senders)
		for j, payload := range f.payloads {
			if payload == nil {
				continue
			}
			if f.status[j] == memberCrashed {
				deliver, midBroadcast := delivered[j]
				if !midBroadcast || !deliver(f.members[i]) {
					continue
				}
			}
			msgs = append(msgs, proto.Message{From: f.members[j], Payload: payload})
			if i != j {
				f.messages++
				f.bytes += int64(len(payload))
			}
		}
		deliveries[i] = msgs
	}
	return deliveries, f.crashed[preCrashed:]
}

// deliverShared fills deliveries for a round without a mid-broadcast
// victim. Every live member then hears the same list, every payload of
// a sender that did not crash, so the list is built once and shared
// (Round.Msgs is read-only). A live member always broadcast, so its own
// payload is in the list and is not counted as a delivery.
func (f *fabric) deliverShared(deliveries [][]proto.Message, senders int) {
	shared := make([]proto.Message, 0, senders)
	var total int64
	for j, payload := range f.payloads {
		if payload != nil && f.status[j] != memberCrashed {
			shared = append(shared, proto.Message{From: f.members[j], Payload: payload})
			total += int64(len(payload))
		}
	}
	for i, st := range f.status {
		if st == memberLive {
			deliveries[i] = shared
			f.messages += int64(len(shared) - 1)
			f.bytes += total - int64(len(f.payloads[i]))
		}
	}
}

// summary assembles the run's outcome; Rounds is the last round stepped.
func (f *fabric) summary() Summary {
	s := Summary{
		Rounds:   f.round,
		Crashed:  f.crashed,
		Messages: f.messages,
		Bytes:    f.bytes,
	}
	s.Decisions = append(s.Decisions, f.decisions...)
	sort.Slice(s.Decisions, func(i, j int) bool { return s.Decisions[i].ID < s.Decisions[j].ID })
	return s
}

// fabricView adapts the fabric's round state to adversary.RoundView.
type fabricView struct {
	fab   *fabric
	alive []proto.ID
}

func (v *fabricView) Round() int { return v.fab.round }
func (v *fabricView) N() int     { return len(v.fab.members) }

func (v *fabricView) Alive() []proto.ID {
	if v.alive == nil {
		for i, id := range v.fab.members {
			if v.fab.status[i] == memberLive {
				v.alive = append(v.alive, id)
			}
		}
	}
	return v.alive
}

func (v *fabricView) Payload(id proto.ID) []byte {
	idx, ok := v.fab.index[id]
	if !ok {
		return nil
	}
	return v.fab.payloads[idx]
}

// Info reads a non-crashed member's in-process state. On the loopback the
// view exists only while a round closes under the hub mutex, when every
// live member has finished Send and not yet started Deliver, so the read
// is race-free and sees what sim's view sees. A member without an
// introspector (every member over TCP) reports false.
func (v *fabricView) Info(id proto.ID) (adversary.BallInfo, bool) {
	idx, ok := v.fab.index[id]
	if !ok || v.fab.intro[idx] == nil || v.fab.status[idx] == memberCrashed {
		return adversary.BallInfo{}, false
	}
	return v.fab.intro[idx].Info(), true
}

func (v *fabricView) Budget() int { return v.fab.budget }
