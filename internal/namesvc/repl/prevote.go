package repl

import (
	"time"

	"ballsintoleaves/internal/wire"
)

// Pre-vote: before bumping its term, a candidate polls the cluster with
// the term it *would* campaign at. Responders grant only if they would
// vote for it — same freshness rule as a real vote — *and* they are not
// hearing a live leader. Nothing is persisted and no vote is spent on
// either side, so a node whose election timer fires spuriously (a healed
// flapping follower, a deafened node on a one-way partition) cannot push
// the cluster's term forward and depose a healthy leader: its poll
// simply fails and it keeps following.

// preVote polls every peer at nextTerm and reports whether a quorum
// (including this node) would elect us. A response carrying a term at or
// above nextTerm means we are behind; it is adopted and the poll fails.
func (n *Node) preVote(nextTerm, lastRecTerm, position uint64) bool {
	type result struct {
		term    uint64
		granted bool
	}
	results := make(chan result, len(n.cfg.Peers))
	voters := 0
	for id, peer := range n.cfg.Peers {
		if id == n.cfg.NodeID {
			continue
		}
		voters++
		go func(addr string) {
			t, granted := n.requestPreVote(addr, nextTerm, lastRecTerm, position)
			results <- result{t, granted}
		}(peer.ReplAddr)
	}
	grants := 1 // self: our own timer (or operator) already judged the leader stale
	deadline := time.After(n.cfg.ElectionTimeout)
	for i := 0; i < voters && grants < n.quorum; i++ {
		select {
		case r := <-results:
			if r.term >= nextTerm {
				n.observeTerm(r.term)
				return false
			}
			if r.granted {
				grants++
			}
		case <-deadline:
			return false
		case <-n.stop:
			return false
		}
	}
	return grants >= n.quorum
}

// requestPreVote polls one peer; the returned term is the responder's
// current term, never an adopted one.
func (n *Node) requestPreVote(addr string, nextTerm, lastRecTerm, position uint64) (uint64, bool) {
	p, err := DialPeer(addr, n.cfg.ElectionTimeout)
	if err != nil {
		return 0, false
	}
	defer p.Close()
	var w wire.Writer
	appendPreVoteReq(&w, nextTerm, n.cfg.NodeID, lastRecTerm, position)
	if err := p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout)); err != nil {
		return 0, false
	}
	body, err := p.Recv(time.Now().Add(n.cfg.ElectionTimeout))
	if err != nil || len(body) == 0 || body[0] != kPreVoteResp {
		return 0, false
	}
	respTerm, granted, err := decodePreVoteResp(body)
	if err != nil {
		return 0, false
	}
	return respTerm, granted
}

// servePreVote answers a pre-vote poll without touching term, vote, or
// disk: grant only if the candidate's term would beat ours, we are not
// hearing a live leader (stickiness), and the candidate is at least as
// fresh as this replica.
func (n *Node) servePreVote(p *Peer, body []byte) {
	reqTerm, _, candRecTerm, candPos, err := decodePreVoteReq(body)
	if err != nil {
		return
	}
	// As in serveVote: position is read before n.mu (shard locks order
	// before the node lock).
	pos := n.svc.Position()
	n.mu.Lock()
	granted := reqTerm > n.term && !n.hearingLeaderLocked() &&
		(candRecTerm > n.lastRecTerm || (candRecTerm == n.lastRecTerm && candPos >= pos))
	cur := n.term
	n.mu.Unlock()
	var w wire.Writer
	appendPreVoteResp(&w, cur, granted)
	p.SendNow(w.Bytes(), time.Now().Add(replIOTimeout))
}

// hearingLeaderLocked reports whether this node currently believes a
// live leader exists: it is one itself with a fresh check-quorum lease,
// or it heard from one within the election timeout. n.mu must be held.
func (n *Node) hearingLeaderLocked() bool {
	if l := n.ldr; l != nil && !l.fenced {
		return n.leaseFreshLocked(l)
	}
	return n.leaderID >= 0 && n.leaderID != n.cfg.NodeID &&
		time.Since(n.lastContact) < n.cfg.ElectionTimeout
}
