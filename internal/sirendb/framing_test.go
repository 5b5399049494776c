package sirendb

import (
	"siren/internal/wire"
	"siren/internal/xxhash"
)

// encodeRecords frames ms exactly as an insert stages them into a head
// chunk, in a buffer of their own and with sequence number zero;
// patchRecordSeq sets the real ones. A message exceeding maxRecordLen is
// rejected.
func encodeRecords(ms []wire.Message) (buf []byte, marks []recordMark, err error) {
	if err := checkRecordLens(ms); err != nil {
		return nil, nil, err
	}
	var h head
	buf, ds := h.stageMessages(ms, 0)
	marks = make([]recordMark, len(ds))
	off := 0
	for i := range ds {
		marks[i] = recordMark{off: off, sum: uint32(xxhash.Sum64(ds[i].Datagram))}
		off += recHdrSize + len(ds[i].Datagram)
	}
	return buf, marks, nil
}
