package tcpeng

import "testing"

// TestPortTable: exclusive reservations and refcounted ephemeral use are
// mutually exclusive per port; releases restore availability.
func TestPortTable(t *testing.T) {
	var pt portTable
	if !pt.reserve(8080) {
		t.Fatal("fresh reserve failed")
	}
	if pt.reserve(8080) {
		t.Fatal("double reserve succeeded")
	}
	// A reserved port cannot be picked up ephemerally by autobind's check.
	if !pt.isReserved(8080) {
		t.Fatal("isReserved lost the reservation")
	}
	pt.unreserve(8080)
	if pt.isReserved(8080) {
		t.Fatal("unreserve did not clear")
	}
	if !pt.reserve(8080) {
		t.Fatal("re-reserve after unreserve failed")
	}
	pt.unreserve(8080)

	// Ephemeral refcounting: two connections share a port; bind() must fail
	// until both are gone.
	pt.ephemAcquire(40000)
	pt.ephemAcquire(40000)
	if pt.reserve(40000) {
		t.Fatal("reserve succeeded over live ephemeral use")
	}
	pt.ephemRelease(40000)
	if pt.reserve(40000) {
		t.Fatal("reserve succeeded with one ephemeral user left")
	}
	pt.ephemRelease(40000)
	if !pt.reserve(40000) {
		t.Fatal("reserve failed after all ephemeral users released")
	}
}
