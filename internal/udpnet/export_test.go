package udpnet

// Counts reports the events l injected so far. Safe to call while traffic
// flows (node close still trickles ACKs after a test's send phase ends).
func (l *Lossy) Counts() (drops, dups, reorders int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.drops, l.dups, l.reorders
}
