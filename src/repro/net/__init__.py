"""Network substrate: pcap I/O, packet codecs, TCP reassembly, HTTP/1.x.

This package replaces the deep-packet-inspection tooling the paper used
on its PCAP corpus (scapy is unavailable offline; see DESIGN.md §2).
"""

from repro.net.flows import (
    AddressBook,
    packets_from_trace,
    transactions_from_packets,
)
from repro.net.pcap import (
    LINKTYPE_ETHERNET,
    LINKTYPE_RAW_IP,
    PcapPacket,
    PcapReader,
    PcapWriter,
    read_pcap,
    write_pcap,
)
from repro.net.pcapng import PcapngReader, read_capture, read_pcapng
from repro.net.reassembly import FlowKey, TcpReassembler, TcpStream

__all__ = [
    "AddressBook",
    "FlowKey",
    "LINKTYPE_ETHERNET",
    "LINKTYPE_RAW_IP",
    "PcapPacket",
    "PcapReader",
    "PcapngReader",
    "PcapWriter",
    "TcpReassembler",
    "TcpStream",
    "packets_from_trace",
    "read_capture",
    "read_pcap",
    "read_pcapng",
    "transactions_from_packets",
    "write_pcap",
]
