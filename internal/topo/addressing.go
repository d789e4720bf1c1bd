package topo

import (
	"fmt"
	"strconv"

	"repro/internal/netaddr"
)

// Address layout constants following the paper's Fig 3(d): host subnets are
// carved from 10.11.0.0/16 (one /24 per ToR, the ToR itself owning .1),
// aggregation switches live at 10.12.j.1 and core switches at 10.13.j.1.
const (
	dcnPrefixStr      = "10.11.0.0/16"
	maxToRs           = 256
	maxSwitchOrdinals = 256
	maxHostsPerToR    = 253 // .2 … .254
)

// addrPlanner hands out addresses during topology construction.
type addrPlanner struct {
	nextToR  int
	nextAgg  int
	nextCore int
}

// newPlanned returns an empty named topology carrying the address plan, and
// the planner that hands out its addresses.
func newPlanned(name string) (*Topology, *addrPlanner, error) {
	dcn, err := netaddr.ParsePrefix(dcnPrefixStr)
	if err != nil {
		return nil, nil, err
	}
	cov, err := dcn.Covering()
	if err != nil {
		return nil, nil, err
	}
	t := NewTopology(name)
	t.Plan = AddrPlan{DCNPrefix: dcn, Covering: cov}
	return t, &addrPlanner{}, nil
}

// addSwitch adds a switch of kind k (ToR, Agg or Core) to t at the next
// address of its layer; a ToR also takes the next host subnet.
func (a *addrPlanner) addSwitch(t *Topology, k Kind, name string, ports, pod, index int) (NodeID, error) {
	nd := Node{Name: name, Kind: k, NumPorts: ports, Pod: pod, Index: index}
	var err error
	switch k {
	case ToR:
		nd.Subnet, nd.Addr, err = a.tor()
	case Agg:
		nd.Addr, err = a.agg()
	default:
		nd.Addr, err = a.core()
	}
	if err != nil {
		return None, err
	}
	return t.AddNode(nd), nil
}

// addHosts attaches count hosts to tor, numbered into its subnet from .2
// up and named prefix-0, prefix-1, …; each host's Pod is pod and its Index
// its ordinal under the ToR.
func (t *Topology) addHosts(tor NodeID, count, pod int, prefix string) error {
	subnet := t.Node(tor).Subnet
	for h := 0; h < count; h++ {
		addr, err := hostAddr(subnet, h)
		if err != nil {
			return err
		}
		id := t.AddNode(Node{
			Name: prefix + "-" + strconv.Itoa(h), Kind: Host,
			NumPorts: 1, Addr: addr, Pod: pod, Index: h,
		})
		if _, err := t.AddLink(id, tor, HostLink); err != nil {
			return err
		}
	}
	return nil
}

// tor allocates the next ToR's subnet and router address.
func (a *addrPlanner) tor() (subnet netaddr.Prefix, addr netaddr.Addr, err error) {
	if a.nextToR >= maxToRs {
		return netaddr.Prefix{}, 0, fmt.Errorf("topo: more than %d ToRs not addressable", maxToRs)
	}
	t := byte(a.nextToR)
	a.nextToR++
	subnet, err = netaddr.PrefixFrom(netaddr.AddrFrom4(10, 11, t, 0), 24)
	if err != nil {
		return netaddr.Prefix{}, 0, err
	}
	return subnet, netaddr.AddrFrom4(10, 11, t, 1), nil
}

// host returns the address of host ordinal i (0-based) under the given ToR
// subnet.
func hostAddr(subnet netaddr.Prefix, i int) (netaddr.Addr, error) {
	if i < 0 || i >= maxHostsPerToR {
		return 0, fmt.Errorf("topo: host ordinal %d outside subnet %v", i, subnet)
	}
	return subnet.Nth(uint32(2 + i))
}

// agg allocates the next aggregation switch address.
func (a *addrPlanner) agg() (netaddr.Addr, error) {
	if a.nextAgg >= maxSwitchOrdinals {
		return 0, fmt.Errorf("topo: more than %d aggregation switches not addressable", maxSwitchOrdinals)
	}
	j := byte(a.nextAgg)
	a.nextAgg++
	return netaddr.AddrFrom4(10, 12, j, 1), nil
}

// core allocates the next core switch address.
func (a *addrPlanner) core() (netaddr.Addr, error) {
	if a.nextCore >= maxSwitchOrdinals {
		return 0, fmt.Errorf("topo: more than %d core switches not addressable", maxSwitchOrdinals)
	}
	j := byte(a.nextCore)
	a.nextCore++
	return netaddr.AddrFrom4(10, 13, j, 1), nil
}
