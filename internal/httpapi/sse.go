// Server-Sent Events: GET /v1/queries/{name}/events pushes every
// QueryState revision to connected clients as answers arrive — the
// paper's Figure 4 live view as a push stream instead of a poll loop.
//
// All three SSE kinds — queries, streams and enumerations — are one
// feed type and one serve loop. A feed keeps, per job name, the newest
// state and its revision; publishing bumps the revision and offers the
// event to every subscriber's buffered channel. A slow consumer never
// blocks a publisher (or other subscribers): when a subscriber's buffer
// is full the oldest pending revision is dropped — every event carries
// the full state, so skipping one loses no state the next event doesn't
// restate (a stream window's or an enumeration batch's own delta is
// lost, though). The event id is the revision, so a reconnecting
// client's Last-Event-ID suppresses the initial replay when it has
// already seen the current state.
//
// Delivery order: subscribe returns the state the subscription starts
// from under the same lock publishers take, and that state is the
// replay. Every event queued afterwards is newer, so the ids a client
// sees strictly increase, and the last published state is the last
// event it receives.
package httpapi

import (
	"net/http"
	"strconv"
	"time"

	"cdas/api"
	"cdas/internal/jobs"
)

// subscriberBuffer is each SSE client's pending-event capacity. Events
// are full-state snapshots, so the buffer only needs to absorb bursts,
// not preserve history.
const subscriberBuffer = 16

// feedEvent is one revision en route to a subscriber of any feed: the
// revision id, the SSE event type, and the feed-specific JSON payload.
type feedEvent struct {
	rev  int64
	kind string
	data any
}

// subscriber is one connected SSE client's queue, shared by every feed.
type subscriber struct {
	ch chan feedEvent
}

// push offers ev without ever blocking: a full queue drops its oldest
// event first. Publishers call this under s.mu, so the drain-then-send
// pair cannot interleave with another push.
func (sub *subscriber) push(ev feedEvent) {
	for {
		select {
		case sub.ch <- ev:
			return
		default:
		}
		select {
		case <-sub.ch: // drop-oldest
		default:
		}
	}
}

// feed is one SSE kind's published states, keyed by job name. Every
// method is called under s.mu (get under the read lock is enough).
type feed[T any] map[string]feedEntry[T]

// feedEntry is one name's newest state, its revision (0 until the first
// publish) and its subscribers (nil until someone subscribes).
type feedEntry[T any] struct {
	state T
	rev   int64
	subs  map[*subscriber]struct{}
}

// publish stores st as name's newest state under the next revision and
// pushes the event of that revision to every subscriber.
func (f feed[T]) publish(name string, st T, kind string, data any) {
	e := f[name]
	e.state = st
	e.rev++
	f[name] = e
	ev := feedEvent{rev: e.rev, kind: kind, data: data}
	for sub := range e.subs {
		sub.push(ev)
	}
}

// get returns name's newest state and its revision; revision 0 means
// nothing has been published.
func (f feed[T]) get(name string) (T, int64) {
	e := f[name]
	return e.state, e.rev
}

// subscribe registers a new subscriber for name and returns it with the
// state and revision it starts from: every event later pushed to it
// carries a higher revision.
func (f feed[T]) subscribe(name string) (*subscriber, T, int64) {
	sub := &subscriber{ch: make(chan feedEvent, subscriberBuffer)}
	e := f[name]
	if e.subs == nil {
		e.subs = make(map[*subscriber]struct{})
		f[name] = e
	}
	e.subs[sub] = struct{}{}
	return sub, e.state, e.rev
}

// unsubscribe removes sub. The channel is abandoned, not closed: pushes
// happen under s.mu, so after removal nothing sends, and the garbage
// collector reclaims it with the handler. An entry that never published
// existed only for its subscribers and goes with the last of them.
func (f feed[T]) unsubscribe(name string, sub *subscriber) {
	e := f[name]
	delete(e.subs, sub)
	switch {
	case len(e.subs) > 0:
	case e.rev == 0:
		delete(f, name)
	default:
		e.subs = nil
		f[name] = e
	}
}

// stateKind is the SSE event type of a snapshot: done for a terminal
// state, state otherwise.
func stateKind(done bool) string {
	if done {
		return api.EventDone
	}
	return api.EventState
}

// knownQuery reports whether name identifies a published query or a
// registered job (whose query may publish later).
func (s *Server) knownQuery(name string) bool {
	if _, ok := s.Get(name); ok {
		return true
	}
	if ctl := s.jobs(); ctl != nil {
		if _, ok := ctl.Status(name); ok {
			return true
		}
	}
	return false
}

// serveFeed drives one SSE connection on name's entry in f: Last-Event-ID
// parsing, stream headers, the replay, the follow loop and the dead-job
// ticker. snapshot frames a state as the replayed event; synthesize
// returns the payload of the done event for a job that reached a
// terminal lifecycle state without publishing one, given the newest
// published state (the zero T when there is none).
func serveFeed[T any](s *Server, w http.ResponseWriter, r *http.Request, f feed[T], name string,
	snapshot func(st T) (kind string, data any),
	synthesize func(cur T, job jobs.Status) any,
) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, api.Internal("streaming unsupported by connection"))
		return
	}
	var lastSeen int64 = -1
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		id, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, api.InvalidArgument("bad Last-Event-ID %q: %v", v, err))
			return
		}
		lastSeen = id
	}

	s.mu.Lock()
	sub, cur, rev := f.subscribe(name)
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		f.unsubscribe(name, sub)
		s.mu.Unlock()
	}()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	send := func(ev feedEvent) bool {
		if err := writeSSEData(w, ev.rev, ev.kind, ev.data); err != nil {
			return false
		}
		flusher.Flush()
		return ev.kind != api.EventDone
	}

	// Replay the state the subscription started from unless the client
	// proved it has it. A terminal state is always (re-)sent: a client
	// resuming after the done event must get a clean close, not an
	// eternal hang waiting for revisions that never come.
	if rev > 0 {
		kind, data := snapshot(cur)
		if (rev > lastSeen || kind == api.EventDone) && !send(feedEvent{rev: rev, kind: kind, data: data}) {
			return
		}
	}
	// Not every terminal job publishes a final event: a run that fails
	// before buying any answers (no matching items, permanent config
	// error) ends with nothing on the feed. Poll the job's lifecycle
	// record so such watchers get a synthetic done event instead of
	// hanging forever.
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-sub.ch:
			if !send(ev) {
				return
			}
		case <-ticker.C:
			ctl := s.jobs()
			if ctl == nil {
				continue
			}
			st, ok := ctl.Status(name)
			if !ok || !api.JobState(st.State).Terminal() {
				continue
			}
			// Give an in-flight final publish priority over synthesis:
			// the runner publishes before the dispatcher commits the
			// terminal transition, so anything real is already queued.
			select {
			case ev := <-sub.ch:
				if !send(ev) {
					return
				}
				continue
			default:
			}
			// The synthetic done takes the next revision: a watcher may
			// already hold the current one, and nothing publishes after
			// a job is terminal, so that id is never reused.
			s.mu.RLock()
			cur, rev := f.get(name)
			s.mu.RUnlock()
			send(feedEvent{rev: rev + 1, kind: api.EventDone, data: synthesize(cur, st)})
			return
		}
	}
}

// v1QueryEvents is GET /v1/queries/{name}/events: an SSE stream of the
// query's state revisions. The current state is replayed immediately
// (unless Last-Event-ID proves the client has it), every subsequent
// Update pushes an "state" event, and the terminal revision arrives as
// "done", after which the server closes the stream. A job that reaches
// a terminal lifecycle state without publishing a final query state
// (e.g. a permanent failure before any answers were bought) produces a
// synthetic done event carrying the job error, so watchers never hang
// on a dead job. Client disconnect tears the subscription down through
// the request context.
func (s *Server) v1QueryEvents(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if !s.knownQuery(name) {
		writeError(w, api.NotFound("no such query %q", name))
		return
	}
	serveFeed(s, w, r, s.queries, name,
		func(st QueryState) (string, any) { return stateKind(st.Done), st },
		func(cur QueryState, job jobs.Status) any {
			// Synthesize the terminal event from whatever the run
			// published: partial results stay visible (events are
			// full-state snapshots), only Done and the job error are
			// stamped on.
			cur.Name = name
			if !cur.Done {
				cur.Done = true
				cur.Error = job.Error
			}
			return cur
		})
}
