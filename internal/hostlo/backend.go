package hostlo

import (
	"fmt"

	"nestless/internal/netsim"
	"nestless/internal/virtio"
)

// Backend adapts one Hostlo queue as the host-side backend of a virtio
// NIC: the VM's endpoint interface transmits into the queue, and frames
// the device reflects are injected back toward the guest. This is the
// QEMU-side glue of the paper's implementation (§4.2): "creates and adds
// one RX/TX queue of it to each VM that needs it".
type Backend struct {
	dev   *Device
	queue *Queue
	nic   *virtio.NIC
}

// NewBackend creates a detached backend on the device; call Bind once
// the NIC exists.
func NewBackend(d *Device) *Backend {
	return &Backend{dev: d}
}

// Bind attaches the backend's queue and wires it to the endpoint NIC.
func (b *Backend) Bind(nic *virtio.NIC) {
	b.nic = nic
	b.queue = b.dev.AddQueue(b)
}

// Unbind releases the queue (endpoint hot-unplug).
func (b *Backend) Unbind() {
	if b.queue != nil {
		b.dev.RemoveQueue(b.queue)
		b.queue = nil
	}
}

// FromGuest ingests a guest-transmitted frame into the loopback device.
func (b *Backend) FromGuest(f *netsim.Frame) {
	if b.queue != nil {
		b.queue.Receive(f)
	}
}

// InjectToGuest pushes a reflected frame toward the VM.
func (b *Backend) InjectToGuest(f *netsim.Frame) {
	if b.nic != nil {
		b.nic.InjectToGuest(f)
	}
}

// EndpointMAC returns the in-VM endpoint's MAC address.
func (b *Backend) EndpointMAC() netsim.MAC {
	if b.nic == nil {
		return netsim.MAC{}
	}
	return b.nic.Guest.MAC
}

// Describe names the backend.
func (b *Backend) Describe() string {
	return fmt.Sprintf("hostlo:%s", b.dev.Name())
}
