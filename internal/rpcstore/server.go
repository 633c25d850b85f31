package rpcstore

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"

	"prague/internal/faultinject"
	"prague/internal/index"
	"prague/internal/store"
)

// Server exposes one store replica over TCP. A server always holds a full
// replica (every shard's data), but it only *serves candidate probes* for
// the shard ids it was configured with — that is what makes a topology: N
// processes, each answering probes for its own partition, all of them able
// to serve graph fetches, lookups, and mutation broadcasts.
//
// Epoch continuity: every mutation pins the pre- and post-mutation
// snapshots into a bounded ring, so probes from coordinators still pinned a
// few epochs back are answered at their epoch instead of failing. A probe
// for an epoch that fell off the ring gets a codeStaleEpoch reply, which
// the client surfaces as a retryable stale-epoch error.
type Server struct {
	st     store.Store
	serve  map[int]bool
	inj    *faultinject.Injector
	ringSz int

	mu     sync.Mutex
	pinned map[uint64]store.Snapshot
	order  []uint64 // ring eviction order (ascending epochs)

	lis      net.Listener
	ctx      context.Context
	cancel   context.CancelFunc
	connWG   sync.WaitGroup
	scratchP sync.Pool
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServeShards restricts which shard ids this server answers candidate
// probes for (default: all shards of the store's layout).
func WithServeShards(ids ...int) ServerOption {
	return func(s *Server) {
		s.serve = map[int]bool{}
		for _, id := range ids {
			s.serve[id] = true
		}
	}
}

// WithServerInjector arms a fault injector on the serving path: SiteRPCServe
// fires per received request (error = drop the connection, latency = slow
// shard) and SiteRPCEpoch per reply (error = answer with a stale epoch tag).
func WithServerInjector(inj *faultinject.Injector) ServerOption {
	return func(s *Server) { s.inj = inj }
}

// WithPinRing sets how many recent epochs the server keeps answerable
// (default 64).
func WithPinRing(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.ringSz = n
		}
	}
}

// NewServer wraps a store replica. The store must outlive the server.
func NewServer(st store.Store, opts ...ServerOption) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		st:       st,
		ringSz:   64,
		pinned:   map[uint64]store.Snapshot{},
		ctx:      ctx,
		cancel:   cancel,
		scratchP: sync.Pool{New: func() any { return new(store.ProbeScratch) }},
	}
	for _, o := range opts {
		o(s)
	}
	if s.serve == nil {
		s.serve = map[int]bool{}
		for i := 0; i < st.NumShards(); i++ {
			s.serve[i] = true
		}
	}
	s.remember(st.Pin())
	return s
}

// ServedShards returns the shard ids this server answers probes for,
// ascending.
func (s *Server) ServedShards() []int {
	ids := make([]int, 0, len(s.serve))
	for id := range s.serve {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Listen binds the address and starts the accept loop in the background.
// Use Addr to learn the bound address (":0" picks a free port).
func (s *Server) Listen(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("rpcstore: listen %s: %w", addr, err)
	}
	s.lis = lis
	s.connWG.Add(1)
	go s.acceptLoop(lis)
	return nil
}

// Addr returns the listener's address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.lis == nil {
		return nil
	}
	return s.lis.Addr()
}

// Close stops the listener and tears down every open connection.
func (s *Server) Close() error {
	s.cancel()
	var err error
	if s.lis != nil {
		err = s.lis.Close()
	}
	s.connWG.Wait()
	return err
}

func (s *Server) acceptLoop(lis net.Listener) {
	defer s.connWG.Done()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.connWG.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	defer conn.Close()
	// Tear the connection down when the server closes: Read unblocks on the
	// closed socket rather than on context, so watch the context explicitly.
	stop := context.AfterFunc(s.ctx, func() { conn.Close() })
	defer stop()
	for {
		req, codec, err := ReadFrame(conn)
		if err != nil {
			return // disconnected or corrupt framing: drop the connection
		}
		// The serve-site fault hook: an error rule drops the connection (the
		// client observes a transport failure — a partition when Every is 1),
		// a latency rule stalls the shard.
		if err := s.inj.Hit(s.ctx, faultinject.SiteRPCServe); err != nil {
			return
		}
		reply := s.dispatch(req)
		reply.Seq = req.Seq
		// The stale-epoch fault hook: a firing error corrupts the reply's
		// epoch tag, exercising the client's epoch-consistency rejection.
		if err := s.inj.Hit(s.ctx, faultinject.SiteRPCEpoch); err != nil {
			if reply.Epoch > 0 {
				reply.Epoch--
			} else {
				reply.Epoch++
			}
		}
		if err := WriteFrame(conn, codec, reply); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req *Msg) *Msg {
	switch req.Op {
	case OpHello:
		return s.handleHello(req)
	case OpCandidates:
		return s.handleCandidates(req)
	case OpGraphs:
		return s.handleGraphs(req)
	case OpLookup:
		return s.handleLookup(req)
	case OpInsert:
		return s.handleInsert(req)
	case OpDelete:
		return s.handleDelete(req)
	}
	return errMsg(req.Op, codeBadRequest, fmt.Sprintf("unknown op %q", req.Op))
}

func errMsg(op string, code int, detail string) *Msg {
	return &Msg{Op: op, ErrCode: code, Error: detail}
}

// remember pins a snapshot into the epoch ring.
func (s *Server) remember(sn store.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.pinned[sn.Epoch()]; ok {
		return
	}
	s.pinned[sn.Epoch()] = sn
	s.order = append(s.order, sn.Epoch())
	for len(s.order) > s.ringSz {
		delete(s.pinned, s.order[0])
		s.order = s.order[1:]
	}
}

// snapAt resolves the snapshot for a requested epoch: the current one, or a
// recent one from the ring.
func (s *Server) snapAt(epoch uint64) (store.Snapshot, bool) {
	cur := s.st.Pin()
	if cur.Epoch() == epoch {
		return cur, true
	}
	s.mu.Lock()
	sn, ok := s.pinned[epoch]
	s.mu.Unlock()
	return sn, ok
}

func (s *Server) handleHello(req *Msg) *Msg {
	sn := s.st.Pin()
	s.remember(sn)
	return &Msg{
		Op:        OpHello,
		Epoch:     sn.Epoch(),
		Shards:    s.ServedShards(),
		NumShards: sn.NumShards(),
		Tag:       sn.CacheTag(),
		NumGraphs: sn.NumGraphs(),
		IDs:       PackIDs(sn.LiveIDs()),
	}
}

// handleCandidates evaluates every probe of one action on every requested
// shard and replies, per probe, with the union over those shards. The whole
// request is checked before any probe runs: a duplicate, out-of-range or
// unserved shard id, or an index entry id outside a shard's index, fails it
// as a whole.
func (s *Server) handleCandidates(req *Msg) *Msg {
	if len(req.Shards) == 0 {
		return errMsg(OpCandidates, codeBadRequest, "no shards to probe")
	}
	for i, sid := range req.Shards {
		if slices.Contains(req.Shards[:i], sid) {
			return errMsg(OpCandidates, codeBadRequest, fmt.Sprintf("shard %d requested twice", sid))
		}
		if !s.serve[sid] {
			return errMsg(OpCandidates, codeWrongShard,
				fmt.Sprintf("shard %d not served here (serving %v)", sid, s.ServedShards()))
		}
	}
	sn, ok := s.snapAt(req.Epoch)
	if !ok {
		return errMsg(OpCandidates, codeStaleEpoch,
			fmt.Sprintf("epoch %d no longer pinned (current %d)", req.Epoch, s.st.Epoch()))
	}
	probes := make([]store.Probe, len(req.Probes))
	for i, w := range req.Probes {
		var err error
		if probes[i], err = unpackProbe(w); err != nil {
			return errMsg(OpCandidates, codeBadRequest, err.Error())
		}
	}
	shards := make([]store.Shard, len(req.Shards))
	for i, sid := range req.Shards {
		if sid < 0 || sid >= sn.NumShards() {
			return errMsg(OpCandidates, codeBadRequest, fmt.Sprintf("shard %d out of range", sid))
		}
		shards[i] = sn.Shard(sid)
		for _, p := range probes {
			if err := checkProbe(shards[i].Index(), p); err != nil {
				return errMsg(OpCandidates, codeBadRequest, err.Error())
			}
		}
	}
	sc := s.scratchP.Get().(*store.ProbeScratch)
	defer s.scratchP.Put(sc)
	perShard := make([][]int, len(shards))
	parts := make([][]BitsPage, len(probes))
	for i, p := range probes {
		for j, sh := range shards {
			perShard[j] = store.ShardCandidates(sh, p, sc)
		}
		parts[i] = PackIDs(store.MergeSorted(perShard))
	}
	return &Msg{Op: OpCandidates, Epoch: req.Epoch, Parts: parts}
}

// checkProbe bounds every index entry id a probe will dereference: the ids
// come off the wire, and the index accessors do not check them.
func checkProbe(idx *index.Set, p store.Probe) error {
	inRange := func(what string, n int, ids ...int) error {
		for _, id := range ids {
			if id < 0 || id >= n {
				return fmt.Errorf("%s entry %d out of range [0,%d)", what, id, n)
			}
		}
		return nil
	}
	nf, ni := idx.A2F.NumEntries(), idx.A2I.NumEntries()
	switch p.Kind {
	case index.KindFrequent:
		return inRange("frequent", nf, p.FreqID)
	case index.KindDIF:
		return inRange("DIF", ni, p.DifID)
	}
	if err := inRange("Ups", ni, p.Ups...); err != nil {
		return err
	}
	return inRange("Phi", nf, p.Phi...)
}

func (s *Server) handleGraphs(req *Msg) *Msg {
	sn := s.st.Pin()
	want := UnpackIDs(req.IDs)
	blobs := make([][]byte, 0, len(want))
	for _, id := range want {
		if id < 0 || id >= sn.NumGraphs() {
			return errMsg(OpGraphs, codeStoreErr, fmt.Sprintf("graph %d out of range", id))
		}
		g := sn.Graph(id)
		if g == nil {
			// Tombstoned since the client pinned: ids are never reused, so
			// an explicit empty blob (never a wrong graph) is safe to skip
			// client-side.
			blobs = append(blobs, nil)
			continue
		}
		blob, err := EncodeGraph(g)
		if err != nil {
			return errMsg(OpGraphs, codeStoreErr, err.Error())
		}
		blobs = append(blobs, blob)
	}
	return &Msg{Op: OpGraphs, Epoch: sn.Epoch(), GraphBlobs: blobs}
}

func (s *Server) handleLookup(req *Msg) *Msg {
	sn, ok := s.snapAt(req.Epoch)
	if !ok {
		return errMsg(OpLookup, codeStaleEpoch,
			fmt.Sprintf("epoch %d no longer pinned (current %d)", req.Epoch, s.st.Epoch()))
	}
	kind, id := sn.Lookup(req.Frag)
	return &Msg{Op: OpLookup, Epoch: req.Epoch, Kind: int(kind), EntryID: id}
}

func (s *Server) handleInsert(req *Msg) *Msg {
	if len(req.GraphBlobs) != 1 {
		return errMsg(OpInsert, codeBadRequest, "insert wants exactly one graph blob")
	}
	g, err := DecodeGraph(req.GraphBlobs[0])
	if err != nil {
		return errMsg(OpInsert, codeBadRequest, err.Error())
	}
	pre := s.st.Pin()
	if pre.Epoch() != req.Epoch {
		return &Msg{Op: OpInsert, ErrCode: codeEpochConflict, Epoch: pre.Epoch(), Tag: pre.CacheTag(),
			Error: fmt.Sprintf("base epoch %d, server at %d", req.Epoch, pre.Epoch())}
	}
	s.remember(pre)
	id, err := s.st.InsertGraph(g)
	if err != nil {
		return errMsg(OpInsert, codeStoreErr, err.Error())
	}
	post := s.st.Pin()
	s.remember(post)
	return &Msg{Op: OpInsert, Epoch: post.Epoch(), Tag: post.CacheTag(), GraphID: id}
}

func (s *Server) handleDelete(req *Msg) *Msg {
	pre := s.st.Pin()
	if pre.Epoch() != req.Epoch {
		return &Msg{Op: OpDelete, ErrCode: codeEpochConflict, Epoch: pre.Epoch(), Tag: pre.CacheTag(),
			Error: fmt.Sprintf("base epoch %d, server at %d", req.Epoch, pre.Epoch())}
	}
	s.remember(pre)
	if err := s.st.DeleteGraph(req.GraphID); err != nil {
		return errMsg(OpDelete, codeStoreErr, err.Error())
	}
	post := s.st.Pin()
	s.remember(post)
	return &Msg{Op: OpDelete, Epoch: post.Epoch(), Tag: post.CacheTag(), GraphID: req.GraphID}
}
