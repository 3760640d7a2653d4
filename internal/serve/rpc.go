// Typed-RPC encode/decode helpers shared by the two client flavors:
// Conn (one transport, fails on disconnect) and Session (persistent,
// reconnecting). Keeping the wire shapes here means a retransmitted
// Session request is byte-identical to the original — which is exactly
// what the server's duplicate-request cache fingerprints.
//
// Each request is built once, as a complete frame in a pooled buffer:
// the enc* helpers write header and body, the caller's call stamps the
// xid, and that one frame is what goes out (again, on a retransmit).
// Each reply is read into its own pooled buffer and handed to the
// caller, whose dec* helper decodes it and recycles the buffer.
package serve

import (
	"encoding/binary"
	"fmt"

	"trio/internal/fsapi"
)

// reply is one completed call. body aliases buf, the pooled buffer the
// reply frame was read into; release recycles it.
type reply struct {
	status Status
	body   []byte
	buf    *[]byte
}

// release recycles the reply's buffer. The zero reply has none.
func (r reply) release() {
	if r.buf != nil {
		putBuf(r.buf)
	}
}

// ---------------------------------------------------------------------
// request frames
// ---------------------------------------------------------------------

// beginReq starts a request frame for p in a pooled buffer. The xid is
// left zero for stampXid.
func beginReq(p Proc) (*[]byte, []byte) {
	bp := getBuf()
	return bp, BeginFrame(*bp, 0, uint8(p))
}

// endReq patches the frame length and stores the frame in its buffer.
func endReq(bp *[]byte, b []byte) *[]byte {
	*bp = EndFrame(b, 0)
	return bp
}

// stampXid writes xid into a frame built by beginReq.
func stampXid(frame []byte, xid uint32) { binary.LittleEndian.PutUint32(frame[4:], xid) }

// frameProc reads the proc back out of a request frame.
func frameProc(frame []byte) Proc { return Proc(frame[8]) }

func encHello(clientID uint64) *[]byte {
	bp, b := beginReq(ProcHello)
	b = appendU32(b, Magic)
	b = appendU16(b, ProtoVersion)
	return endReq(bp, appendU64(b, clientID))
}

// encHandle builds a request whose body is one handle (GETATTR, COMMIT).
func encHandle(p Proc, h fsapi.Handle) *[]byte {
	bp, b := beginReq(p)
	return endReq(bp, AppendHandle(b, h))
}

func encLookup(dir fsapi.Handle, name string) *[]byte {
	bp, b := beginReq(ProcLookup)
	b = AppendHandle(b, dir)
	return endReq(bp, AppendString(b, name))
}

func encRead(h fsapi.Handle, off int64, n int) *[]byte {
	bp, b := beginReq(ProcRead)
	b = AppendHandle(b, h)
	b = appendU64(b, uint64(off))
	return endReq(bp, appendU32(b, uint32(n)))
}

func encWrite(h fsapi.Handle, off int64, p []byte) *[]byte {
	bp, b := beginReq(ProcWrite)
	b = AppendHandle(b, h)
	b = appendU64(b, uint64(off))
	return endReq(bp, AppendBytes(b, p))
}

func encAppend(h fsapi.Handle, p []byte) *[]byte {
	bp, b := beginReq(ProcAppend)
	b = AppendHandle(b, h)
	return endReq(bp, AppendBytes(b, p))
}

// encMakeNode builds a CREATE or MKDIR request.
func encMakeNode(p Proc, dir fsapi.Handle, mode uint16, name string) *[]byte {
	bp, b := beginReq(p)
	b = AppendHandle(b, dir)
	b = appendU16(b, mode)
	return endReq(bp, AppendString(b, name))
}

// encRemoveNode builds a REMOVE or RMDIR request.
func encRemoveNode(p Proc, dir fsapi.Handle, name string) *[]byte {
	bp, b := beginReq(p)
	b = AppendHandle(b, dir)
	return endReq(bp, AppendString(b, name))
}

func encRename(fromDir, toDir fsapi.Handle, fromName, toName string) *[]byte {
	bp, b := beginReq(ProcRename)
	b = AppendHandle(b, fromDir)
	b = AppendHandle(b, toDir)
	b = AppendString(b, fromName)
	return endReq(bp, AppendString(b, toName))
}

func encReaddir(h fsapi.Handle, cookie uint32) *[]byte {
	bp, b := beginReq(ProcReaddir)
	b = AppendHandle(b, h)
	return endReq(bp, appendU32(b, cookie))
}

func encSetattr(h fsapi.Handle, size int64) *[]byte {
	bp, b := beginReq(ProcSetattr)
	b = AppendHandle(b, h)
	return endReq(bp, appendU64(b, uint64(size)))
}

// ---------------------------------------------------------------------
// reply bodies: each dec* takes a call's results, decodes the reply on
// success and recycles its buffer
// ---------------------------------------------------------------------

// decEmpty finishes a call whose reply carries no body.
func decEmpty(rep reply, err error) error {
	rep.release()
	return err
}

func decAttr(rep reply, err error) (Attr, error) {
	if err != nil {
		return Attr{}, err
	}
	defer rep.release()
	d := NewDec(rep.body)
	a := d.Attr()
	return a, d.Err()
}

func decHandleAttr(rep reply, err error) (fsapi.Handle, Attr, error) {
	if err != nil {
		return fsapi.Handle{}, Attr{}, err
	}
	defer rep.release()
	d := NewDec(rep.body)
	h, a := d.Handle(), d.Attr()
	return h, a, d.Err()
}

func decReadInto(rep reply, err error, p []byte) (int, error) {
	if err != nil {
		return 0, err
	}
	defer rep.release()
	d := NewDec(rep.body)
	data := d.Bytes()
	if err := d.Err(); err != nil {
		return 0, err
	}
	return copy(p, data), nil
}

func decWrote(rep reply, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	defer rep.release()
	d := NewDec(rep.body)
	n := int(d.U32())
	return n, d.Err()
}

func decAppendedAt(rep reply, err error) (int64, error) {
	if err != nil {
		return 0, err
	}
	defer rep.release()
	d := NewDec(rep.body)
	at := int64(d.U64())
	return at, d.Err()
}

// readdirPages follows the server's continuation cookie until the
// listing completes; page issues one READDIR for the given cookie.
func readdirPages(h fsapi.Handle, page func(frame *[]byte) (reply, error)) ([]string, error) {
	var names []string
	cookie := uint32(0)
	for {
		rep, err := page(encReaddir(h, cookie))
		if err != nil {
			return nil, err
		}
		d := NewDec(rep.body)
		n := int(d.U32())
		for i := 0; i < n && d.Err() == nil; i++ {
			names = append(names, string(d.Name()))
		}
		next := d.U32()
		rep.release()
		if err := d.Err(); err != nil {
			return nil, err
		}
		if next == 0 {
			return names, nil
		}
		if next <= cookie {
			return nil, fmt.Errorf("%w: readdir cookie did not advance", fsapi.ErrIO)
		}
		cookie = next
	}
}
