package layers

import (
	"errors"

	"newtos/internal/netpkt"
	"newtos/internal/shm"
	"newtos/internal/sockbuf"
)

// driveMemory measures the byte-proportional primitives under every bulk
// transfer: the shared-memory pool (allocate and free a chunk, resolve a
// rich pointer), the socket buffer (stage 4 KiB of application data and
// recycle the chunk), and the Internet checksum over one MSS.
func driveMemory(b *bench) error {
	space := shm.NewSpace()
	pool, err := space.NewPool("mem.pool", 2048, 256)
	if err != nil {
		return err
	}
	var stepErr error
	keep := func(err error) {
		if err != nil && stepErr == nil {
			stepErr = err
		}
	}
	alloc := b.run("shm.alloc_free", func() int {
		for i := 0; i < 64; i++ {
			ptr, _, err := pool.Alloc()
			keep(err)
			keep(pool.Free(ptr))
		}
		return 64
	})
	b.rep.add("shm.alloc_free_ns", alloc.ns, "ns")
	ptr, _, err := pool.Alloc()
	if err != nil {
		return err
	}
	view := b.run("shm.view", func() int {
		for i := 0; i < 64; i++ {
			_, err := space.View(ptr)
			keep(err)
		}
		return 64
	})
	b.rep.add("shm.view_ns", view.ns, "ns")

	buf, err := sockbuf.New(space, "mem.sockbuf", sockbuf.DefaultChunkSize, sockbuf.DefaultChunks)
	if err != nil {
		return err
	}
	data := make([]byte, sockbuf.DefaultChunkSize)
	write := b.run("sockbuf.write", func() int {
		chunk, ok := buf.Get()
		if !ok {
			keep(errors.New("socket buffer exhausted"))
			return 1
		}
		p, err := buf.Write(chunk, data)
		keep(err)
		buf.Recycle(p)
		return len(data) / 1024
	})
	b.rep.add("sockbuf.write_ns_per_kb", write.ns, "ns")

	seg := make([]byte, 1460)
	var sink uint16
	csum := b.run("netpkt.csum", func() int {
		for i := 0; i < 16; i++ {
			sink += netpkt.Checksum(seg)
		}
		return 16
	})
	_ = sink
	b.rep.add("netpkt.csum_ns_per_kb", csum.ns*1024/float64(len(seg)), "ns")
	return stepErr
}
