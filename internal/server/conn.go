package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"
)

// The connection layer: everything between a socket and exec. It owns the
// wire envelope — the length prefix and, for a pipelined request, the tagged
// header with the echoed id — and hands exec a bare request frame and the
// buffer to append the inner reply to; exec never sees an id, a conn or a
// reader.

// listen opens the TCP listener and starts accepting connections.
func (s *Server) listen() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.acceptWg.Add(1)
	go s.acceptLoop()
	return nil
}

// Addr returns the TCP address the server listens on.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) acceptLoop() {
	defer s.acceptWg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.connWg.Add(1)
		go s.handleConn(c)
	}
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// respBufPool pools fully encoded response frames until the goroutine that
// encoded them has written them, the frames a connection reads, and the
// pipelined client's reply buffers. A buffer is kept across queries up to
// maxPooledRespBuf; one above it is dropped on return.
var respBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// maxPooledRespBuf is the retention cap: one whole reply frame — the length
// prefix, a pipelining envelope, MaxFrameBytes — and the trailer's room that
// resultEncoder.reserve asks for on top. So any single answer's buffer is
// kept and reused, and only a pipelined worker's buffer holding several
// replies at once is dropped. A smaller cap drops the buffer of every answer
// above it, to be allocated and cleared anew by the next; DESIGN S45 has the
// measurements the cap was chosen from.
const maxPooledRespBuf = MaxFrameBytes + 64

func getRespBuf() *[]byte { return respBufPool.Get().(*[]byte) }

func putRespBuf(bp *[]byte) {
	if cap(*bp) > maxPooledRespBuf {
		return
	}
	respBufPool.Put(bp)
}

// connReadBufBytes sizes the per-connection buffered reader. Requests are
// tens of bytes, so one read syscall typically drains a whole pipeline
// window instead of paying two syscalls (header + payload) per frame.
const connReadBufBytes = 16 << 10

// connIdleTimeout closes a connection that sends no frame for this long.
const connIdleTimeout = 2 * time.Minute

// connOut is a connection's write side: the goroutine that finished a reply
// writes it, holding mu, so replies from the reader and from several tagged
// workers never interleave on the wire.
type connOut struct {
	c      net.Conn
	mu     sync.Mutex
	failed bool
}

// write sends one encoded buffer holding frames wire frames in one write
// and recycles it. A write that does not complete within QueryTimeout — a
// client that stopped reading — fails the connection: closing it ends the
// reader's next read, so the connection tears down, and later writes only
// recycle their buffers.
func (s *Server) write(out *connOut, bp *[]byte, frames int) {
	out.mu.Lock()
	if !out.failed {
		out.c.SetWriteDeadline(time.Now().Add(s.cfg.QueryTimeout))
		if _, err := out.c.Write(*bp); err != nil {
			out.failed = true
			out.c.Close()
		} else {
			s.met.writeBatches.Add(1)
			s.met.writeFrames.Add(int64(frames))
		}
	}
	out.mu.Unlock()
	putRespBuf(bp)
}

// handleConn serves one client connection on one goroutine, the reader
// (DESIGN S26, S46). It decodes frames and dispatches them. Untagged
// requests are executed and answered inline, which preserves the strict
// one-request/one-response ordering pre-pipelining clients rely on; tagged
// (pipelined) requests execute concurrently on workers — up to
// pipelineDepth per connection — that write their own replies, possibly out
// of order, which is exactly what the echoed request id is for. Connections
// run with TCP_NODELAY, Go's default for TCP: the frames are small and
// latency-sensitive, and a tagged batch's replies already leave in one write.
//
// A frame-level error (desynchronized or hostile stream) is answered and
// closes the connection; a request-level error is answered and the
// connection kept.
func (s *Server) handleConn(c net.Conn) {
	out := &connOut{c: c}

	// Tagged requests execute on a per-connection worker pool, grown lazily
	// up to pipelineDepth goroutines. The work channel is unbuffered, so
	// when every worker is busy — serving, or writing to a client slow to
	// read — the reader blocks here, which bounds both concurrent execution
	// and the replies ever held for the connection.
	work := make(chan *taggedBatch)
	spread := make(chan *taggedBatch)
	workers := 0
	var inflight sync.WaitGroup

	defer s.connWg.Done()
	defer s.dropConn(c)
	defer func() {
		// The workers have written their last replies before the
		// connection closes.
		close(work)
		inflight.Wait()
	}()

	// sendError answers a stream-level failure that has no decodable
	// request behind it.
	sendError := func(msg string) {
		bp := getRespBuf()
		*bp = appendErrorFrame((*bp)[:0], msg, 0, false)
		s.write(out, bp, 1)
	}

	br := bufio.NewReaderSize(c, connReadBufBytes)
	// Frames are read into pooled buffers. An untagged frame is served inline
	// and its buffer reused for the next read; a tagged frame's buffer moves
	// to the worker, which recycles it once the request is decoded and served.
	rbuf := getRespBuf()
	defer func() { putRespBuf(rbuf) }()
	for {
		c.SetReadDeadline(time.Now().Add(connIdleTimeout))
		// Check for shutdown after arming, not before: Close closes done and
		// then sets every read deadline to now, so either this sees done or
		// Close's deadline replaces the one just set.
		select {
		case <-s.done:
			return // draining: finish the in-flight replies, then hang up
		default:
		}
		f, err := readFrameBuf(br, rbuf)
		if err != nil {
			if errors.Is(err, ErrFrameTooBig) || errors.Is(err, ErrEmptyFrame) {
				s.met.errors.Add(1)
				sendError(err.Error())
			}
			return
		}
		if f.Verb == VerbTagged {
			id, inner, uerr := UnwrapTagged(f)
			if uerr != nil {
				// A malformed envelope means ids can no longer be trusted;
				// treat it like a desynchronized stream.
				s.met.errors.Add(1)
				sendError(uerr.Error())
				return
			}
			// Batch the dispatch: every complete tagged frame already
			// sitting in the read buffer rides the same handoff, so a burst
			// of pipelined requests costs one worker wakeup — and, since the
			// worker encodes the whole batch into one buffer, one write —
			// instead of one per request.
			batch := batchPool.Get().(*taggedBatch)
			batch.works[0] = taggedWork{id: id, f: inner, buf: rbuf}
			batch.n = 1
			rbuf = getRespBuf() // the worker owns the old buffer now
			streamErr := ""
			for batch.n < len(batch.works) && nextTaggedBuffered(br) {
				f, err := readFrameBuf(br, rbuf)
				if err != nil {
					streamErr = err.Error()
					break
				}
				id, inner, uerr := UnwrapTagged(f)
				if uerr != nil {
					streamErr = uerr.Error()
					break
				}
				batch.works[batch.n] = taggedWork{id: id, f: inner, buf: rbuf}
				batch.n++
				rbuf = getRespBuf()
			}
			// Hand the batch off to a worker; grow the pool only within
			// budget: the first worker is free (every connection can always
			// make progress); extra workers draw from the server-wide
			// tagSlots budget, so the total pipelined-worker count stays
			// bounded by conns+MaxInflight no matter how many connections
			// pipeline deeply. The pool ramps toward the batch size so a
			// multi-request batch has idle siblings to spread across when
			// its requests turn out to be expensive; growth is one-time
			// (workers persist until the connection closes), so steady
			// state pays nothing here.
			need := min(batch.n, s.cfg.pipelineDepth)
			for workers < need && (workers == 0 || s.tryTagSlot()) {
				workers++
				inflight.Add(1)
				go s.taggedWorker(out, work, spread, &inflight, workers > 1)
			}
			select {
			case work <- batch:
			case <-s.done:
				return
			}
			if streamErr != "" {
				s.met.errors.Add(1)
				sendError(streamErr)
				return
			}
		} else {
			bp := getRespBuf()
			*bp = s.reply((*bp)[:0], f, 0, false)
			s.write(out, bp, 1)
		}
	}
}

// taggedWork is one pipelined request in flight from a connection's reader to
// its worker pool: the decoded envelope plus the pooled buffer backing the
// frame's payload, recycled by the worker after serving.
type taggedWork struct {
	id  uint32
	f   Frame
	buf *[]byte
}

// taggedBatch groups the tagged requests one reader pass drained from its
// connection's buffer: one handoff to a worker, one encoded response buffer
// written. Its capacity caps how many requests serve serially on one worker, so
// a batch never serializes more work than one bufio refill delivers.
type taggedBatch struct {
	n     int
	works [16]taggedWork
}

var batchPool = sync.Pool{New: func() any { return new(taggedBatch) }}

// nextTaggedBuffered reports whether a complete, well-formed-length tagged
// frame is already sitting in br's buffer, so reading it cannot block. An
// untagged or malformed next frame stops the batch and is left for the
// reader's main loop to handle.
func nextTaggedBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 5 {
		return false // Peek past Buffered would block on the socket
	}
	hdr, err := br.Peek(5)
	if err != nil {
		return false
	}
	n := binary.LittleEndian.Uint32(hdr)
	if n == 0 || n > MaxFrameBytes || Verb(hdr[4]) != VerbTagged {
		return false
	}
	return br.Buffered() >= 4+int(n)
}

// tryTagSlot claims one global pipelined-worker slot without blocking.
func (s *Server) tryTagSlot() bool {
	select {
	case s.tagSlots <- struct{}{}:
		return true
	default:
		return false
	}
}

// taggedWorker serves tagged request batches for one connection until the
// work channel closes. Each serves one batch at a time, encodes every
// response in the batch into a single buffer and writes it itself; workers
// wait on each other only for the connection's write lock. A slotted worker
// returns its tagSlots token on exit.
//
// A worker holding a multi-request batch offers half of what remains to an
// idle sibling before each serve (steal-half work spreading, via a
// non-blocking send on the spread channel); see the loop body for how that
// adapts between overlapping expensive requests and batch-encoding cheap
// ones. The spread channel is separate from work — and never closed — so a worker
// mid-offer can never race the reader closing the work channel at teardown;
// it is unbuffered, so a batch moves across it only by direct handoff to a
// parked sibling and nothing is ever stranded in it.
func (s *Server) taggedWorker(out *connOut, work <-chan *taggedBatch, spread chan *taggedBatch, inflight *sync.WaitGroup, slotted bool) {
	defer inflight.Done()
	if slotted {
		defer func() { <-s.tagSlots }()
	}
	for {
		var batch *taggedBatch
		select {
		case b, ok := <-work:
			if !ok {
				return
			}
			batch = b
		case batch = <-spread:
		}
		bp := getRespBuf()
		buf := (*bp)[:0]
		served := 0
		for i := 0; i < batch.n; i++ {
			// Before each serve, offer half of what remains to an idle
			// sibling (steal-half). In the cache-cold phase — where each
			// request waits on disk — siblings are parked and the batch
			// halves recursively down to singles, keeping fetches
			// overlapped instead of serialized behind one worker. When
			// requests are cheap every sibling is busy, the offer fails
			// for the cost of one channel poll, and the whole batch is
			// encoded into a single buffer — exactly when serial is
			// fastest.
			if rem := batch.n - i; rem > 1 {
				half := rem / 2
				rest := batchPool.Get().(*taggedBatch)
				rest.n = copy(rest.works[:], batch.works[batch.n-half:batch.n])
				select {
				case spread <- rest:
					for j := batch.n - half; j < batch.n; j++ {
						batch.works[j] = taggedWork{}
					}
					batch.n -= half
				default:
					rest.n = 0
					batchPool.Put(rest)
				}
			}
			tw := &batch.works[i]
			buf = s.reply(buf, tw.f, tw.id, true)
			putRespBuf(tw.buf)
			batch.works[i] = taggedWork{}
			served++
		}
		*bp = buf
		batch.n = 0
		batchPool.Put(batch)
		s.write(out, bp, served)
	}
}

// reply appends the complete wire frame answering request f onto buf: it
// opens the frame — tagged with the echoed request id when the request
// arrived in a pipelining envelope — lets exec append the inner reply, and
// seals it. An inner reply too large for a frame is the one failure exec
// cannot see (the envelope's five bytes count against the limit); it is
// rewritten here as an error frame.
func (s *Server) reply(buf []byte, f Frame, id uint32, tagged bool) []byte {
	out, start := beginFrame(buf, VerbTaggedReply, id, tagged)
	out, err := endFrame(s.exec(out, f), start)
	if err != nil {
		s.met.errors.Add(1)
		return appendErrorFrame(out, err.Error(), id, tagged)
	}
	return out
}
