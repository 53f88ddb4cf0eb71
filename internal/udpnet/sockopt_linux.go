package udpnet

// Linux UDP socket options for segmentation offload (<linux/udp.h>); they
// postdate the frozen stdlib syscall tables and are the same on every
// architecture.
const (
	solUDP     = 17  // IPPROTO_UDP
	udpSegment = 103 // UDP_SEGMENT: a send is cut into datagrams of this size
	udpGRO     = 104 // UDP_GRO: a receive may return a run of datagrams, with their size
)
