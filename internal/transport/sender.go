package transport

// Sender is the transmit side of a transport. SendBatch emits a whole
// per-layer batch in one call, letting the transport amortize routing and
// syscalls across the batch (the UDP substrate coalesces each subscriber's
// writes, the in-process Bus snapshots its subscriber set once). Bus and
// UDPServer both satisfy it.
//
// Buffer ownership: the packets belong to the loop that built them, which
// reuses their buffers as soon as SendBatch returns — transports (and Bus
// handlers) must copy anything they keep. All decoders in this repository
// copy payloads on Add, so the contract holds end to end.
type Sender interface {
	SendBatch(layer int, pkts [][]byte) error
}
