//! NetCL messages: construction, packing, and unpacking (Fig. 6, Fig. 10).
//!
//! A NetCL-over-UDP packet is the shim header — the 4-tuple `(src, dst,
//! from, to)`, the computation id, and the runtime's action/target fields —
//! followed by the kernel arguments laid out by the kernel *specification*
//! (§V-A): scalar arguments first in declaration order, then array
//! arguments, each element in network byte order. This matches exactly what
//! the generated P4 parser extracts, which the cross-substrate differential
//! tests rely on.
//!
//! As in the paper's Fig. 6, `pack`/`unpack` accept `None` for arguments the
//! caller wants to skip ("to avoid unnecessary copying the programmer may
//! supply NULL to ignore an argument"): packing writes zeros, unpacking
//! skips the copy.
//!
//! There is one pack loop ([`pack_into`]) and one unpack loop ([`unpack`]).
//! Both validate the whole specification first, then make one pass over the
//! scalars and one over the arrays, moving each element as one big-endian
//! word of its width. A host that sends a message per event keeps one wire
//! buffer and one vector per argument it reads and hands them back every
//! time: neither loop allocates once those have grown to the message.

use netcl_sema::model::Specification;

/// Size of the NetCL shim header on the wire:
/// src(2) dst(2) from(2) to(2) comp(1) action(1) target(2).
pub const NCL_HEADER_BYTES: usize = 12;

/// Errors from pack/unpack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MessageError {
    /// Supplied argument count does not match the specification.
    ArgCount {
        /// Expected (specification items).
        expected: usize,
        /// Supplied.
        got: usize,
    },
    /// A supplied argument's element count mismatches its specification.
    ArgLen {
        /// Argument position.
        arg: usize,
        /// Expected element count.
        expected: u32,
        /// Supplied element count.
        got: usize,
    },
    /// An argument's element is not 1 to 8 bytes wide: a value is carried
    /// as one `u64`, so the wire format has no encoding for it.
    ArgWidth {
        /// Argument position.
        arg: usize,
        /// Its element's width on the wire, in bytes.
        bytes: u32,
    },
    /// Buffer too short to unpack.
    Truncated,
}

impl std::fmt::Display for MessageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MessageError::ArgCount { expected, got } => {
                write!(f, "specification has {expected} arguments, got {got}")
            }
            MessageError::ArgLen { arg, expected, got } => {
                write!(f, "argument {arg} needs {expected} elements, got {got}")
            }
            MessageError::ArgWidth { arg, bytes } => {
                write!(f, "argument {arg} is {bytes} bytes wide; the wire carries 1 to 8")
            }
            MessageError::Truncated => write!(f, "message buffer too short"),
        }
    }
}

/// A NetCL message header — `ncl::message m(src, dst, comp, dev)` (Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Message {
    /// Source host id.
    pub src: u16,
    /// Destination host id.
    pub dst: u16,
    /// Previous hop device ([`crate::device::NO_DEVICE`] when fresh).
    pub from: u16,
    /// Device requested to compute.
    pub to: u16,
    /// Computation id.
    pub comp: u8,
    /// Action code (set by devices; 0 = pass on fresh messages).
    pub action: u8,
    /// Action target (set by devices).
    pub target: u16,
}

impl Message {
    /// `send_{src→dst}(comp, dev, m)` header (§IV).
    pub fn new(src: u16, dst: u16, comp: u8, dev: u16) -> Message {
        Message { src, dst, from: crate::device::NO_DEVICE, to: dev, comp, action: 0, target: 0 }
    }

    /// Total packet size for a kernel specification.
    pub fn size(spec: &Specification) -> usize {
        NCL_HEADER_BYTES + spec.payload_bytes() as usize
    }

    /// Serializes the header into the first [`NCL_HEADER_BYTES`] bytes.
    pub fn write_header(&self, out: &mut Vec<u8>) {
        let base = out.len();
        out.resize(base + NCL_HEADER_BYTES, 0);
        self.write_header_into(&mut out[base..]);
    }

    /// Serializes the header in place into `out` (at least
    /// [`NCL_HEADER_BYTES`] long), without allocating. The simulator uses
    /// this to rewrite per-hop fields directly in the wire buffer.
    pub fn write_header_into(&self, out: &mut [u8]) {
        out[0..2].copy_from_slice(&self.src.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst.to_be_bytes());
        out[4..6].copy_from_slice(&self.from.to_be_bytes());
        out[6..8].copy_from_slice(&self.to.to_be_bytes());
        out[8] = self.comp;
        out[9] = self.action;
        out[10..12].copy_from_slice(&self.target.to_be_bytes());
    }

    /// Parses a header from wire bytes.
    pub fn read_header(bytes: &[u8]) -> Result<Message, MessageError> {
        if bytes.len() < NCL_HEADER_BYTES {
            return Err(MessageError::Truncated);
        }
        let u16at = |i: usize| u16::from_be_bytes([bytes[i], bytes[i + 1]]);
        Ok(Message {
            src: u16at(0),
            dst: u16at(2),
            from: u16at(4),
            to: u16at(6),
            comp: bytes[8],
            action: bytes[9],
            target: u16at(10),
        })
    }
}

/// Checks what `pack_into` and `unpack` both need before they touch a
/// buffer — one argument per specification item, each element 1 to 8 bytes
/// on the wire — and returns the packet size.
fn checked_size(spec: &Specification, args: usize) -> Result<usize, MessageError> {
    if args != spec.items.len() {
        return Err(MessageError::ArgCount { expected: spec.items.len(), got: args });
    }
    let mut size = NCL_HEADER_BYTES;
    for (arg, item) in spec.items.iter().enumerate() {
        let bytes = item.ty.size_bytes();
        if !(1..=8).contains(&bytes) {
            return Err(MessageError::ArgWidth { arg, bytes });
        }
        size += (bytes * item.count) as usize;
    }
    Ok(size)
}

/// Item indices in wire order: scalars first, then arrays — mirroring the
/// generated parser (`args_c<N>` header, then per-argument stacks).
fn wire_indices(spec: &Specification) -> impl Iterator<Item = usize> + '_ {
    let pass = move |arrays: bool| {
        (0..spec.items.len()).filter(move |&i| (spec.items[i].count > 1) == arrays)
    };
    pass(false).chain(pass(true))
}

/// Big-endian store of the low `slot.len()` (1 to 8) bytes of `v`; the
/// power-of-two widths compile to single stores.
fn be_store(slot: &mut [u8], v: u64) {
    match slot.len() {
        1 => slot[0] = v as u8,
        2 => slot.copy_from_slice(&(v as u16).to_be_bytes()),
        4 => slot.copy_from_slice(&(v as u32).to_be_bytes()),
        n => slot.copy_from_slice(&v.to_be_bytes()[8 - n..]),
    }
}

/// Big-endian load of a 1 to 8 byte element.
fn be_load(b: &[u8]) -> u64 {
    match *b {
        [a] => a as u64,
        [a, b] => u16::from_be_bytes([a, b]) as u64,
        [a, b, c, d] => u32::from_be_bytes([a, b, c, d]) as u64,
        [a, b, c, d, e, f, g, h] => u64::from_be_bytes([a, b, c, d, e, f, g, h]),
        _ => b.iter().fold(0, |v, &x| (v << 8) | x as u64),
    }
}

/// Packs a message: header + arguments per the specification. `args[i]` is
/// `Some(elements)` or `None` to send zeros (ignored argument).
pub fn pack(
    msg: &Message,
    spec: &Specification,
    args: &[Option<&[u64]>],
) -> Result<Vec<u8>, MessageError> {
    let mut out = Vec::new();
    pack_into(msg, spec, args, &mut out)?;
    Ok(out)
}

/// [`pack`] into a buffer the caller reuses: `out` is cleared and sized to
/// the packet in one step, whatever it held. On an error it is untouched.
pub fn pack_into(
    msg: &Message,
    spec: &Specification,
    args: &[Option<&[u64]>],
    out: &mut Vec<u8>,
) -> Result<(), MessageError> {
    let size = checked_size(spec, args.len())?;
    for (arg, (item, vals)) in spec.items.iter().zip(args).enumerate() {
        if let Some(got) = vals.map(<[u64]>::len).filter(|&n| n != item.count as usize) {
            return Err(MessageError::ArgLen { arg, expected: item.count, got });
        }
    }
    // Zero-filled: an ignored argument is already on the wire.
    out.clear();
    out.resize(size, 0);
    msg.write_header_into(out);
    let mut at = NCL_HEADER_BYTES;
    for i in wire_indices(spec) {
        let item = spec.items[i];
        let n = item.ty.size_bytes() as usize;
        let end = at + n * item.count as usize;
        for (slot, &v) in out[at..end].chunks_exact_mut(n).zip(args[i].unwrap_or_default()) {
            be_store(slot, item.ty.wrap(v));
        }
        at = end;
    }
    Ok(())
}

/// Unpacks a message into `args`. `args[i]` is `Some(&mut Vec)` to receive
/// the values (cleared, then filled with one reservation) or `None` to skip.
pub fn unpack(
    bytes: &[u8],
    spec: &Specification,
    args: &mut [Option<&mut Vec<u64>>],
) -> Result<Message, MessageError> {
    let size = checked_size(spec, args.len())?;
    let msg = Message::read_header(bytes)?;
    if bytes.len() < size {
        return Err(MessageError::Truncated);
    }
    let mut at = NCL_HEADER_BYTES;
    for i in wire_indices(spec) {
        let item = spec.items[i];
        let n = item.ty.size_bytes() as usize;
        let end = at + n * item.count as usize;
        if let Some(out) = &mut args[i] {
            out.clear();
            out.extend(bytes[at..end].chunks_exact(n).map(be_load));
        }
        at = end;
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcl_sema::model::{SpecItem, Specification};
    use netcl_sema::Ty;

    fn cache_spec() -> Specification {
        // Fig. 4 query kernel: [1,1,1,1,1][u8,u32,u32,u8,u32]
        Specification {
            items: vec![
                SpecItem { count: 1, ty: Ty::U8 },
                SpecItem { count: 1, ty: Ty::U32 },
                SpecItem { count: 1, ty: Ty::U32 },
                SpecItem { count: 1, ty: Ty::U8 },
                SpecItem { count: 1, ty: Ty::U32 },
            ],
        }
    }

    fn agg_spec() -> Specification {
        // Fig. 7: [1,1,1,1,32][u8,u16,u16,u16,u32]
        Specification {
            items: vec![
                SpecItem { count: 1, ty: Ty::U8 },
                SpecItem { count: 1, ty: Ty::U16 },
                SpecItem { count: 1, ty: Ty::U16 },
                SpecItem { count: 1, ty: Ty::U16 },
                SpecItem { count: 32, ty: Ty::U32 },
            ],
        }
    }

    #[test]
    fn header_roundtrip() {
        let m = Message::new(1, 2, 1, 1);
        let mut w = Vec::new();
        m.write_header(&mut w);
        assert_eq!(w.len(), NCL_HEADER_BYTES);
        assert_eq!(Message::read_header(&w).unwrap(), m);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let spec = cache_spec();
        let m = Message::new(1, 2, 1, 1);
        // Fig. 6: val and hit are placeholders (NULL); hot skipped too.
        let packed =
            pack(&m, &spec, &[Some(&[1]), Some(&[0xDEAD_BEEF]), None, None, None]).unwrap();
        assert_eq!(packed.len(), Message::size(&spec));

        let mut op = Vec::new();
        let mut key = Vec::new();
        let mut val = Vec::new();
        let got = unpack(
            &packed,
            &spec,
            &mut [Some(&mut op), Some(&mut key), Some(&mut val), None, None],
        )
        .unwrap();
        assert_eq!(got, m);
        assert_eq!(op, vec![1]);
        assert_eq!(key, vec![0xDEAD_BEEF]);
        assert_eq!(val, vec![0]);
    }

    #[test]
    fn array_arguments_pack_after_scalars() {
        let spec = agg_spec();
        let m = Message::new(3, 3, 1, 1);
        let values: Vec<u64> = (0..32).map(|i| i * 10).collect();
        let packed =
            pack(&m, &spec, &[Some(&[0]), Some(&[7]), Some(&[7]), Some(&[1 << 3]), Some(&values)])
                .unwrap();
        assert_eq!(packed.len(), NCL_HEADER_BYTES + (1 + 2 + 2 + 2) + 32 * 4);
        let mut out = Vec::new();
        unpack(&packed, &spec, &mut [None, None, None, None, Some(&mut out)]).unwrap();
        assert_eq!(out, values);
    }

    #[test]
    fn values_wrap_to_argument_width() {
        let spec = Specification { items: vec![SpecItem { count: 1, ty: Ty::U8 }] };
        let m = Message::new(1, 2, 1, 1);
        let packed = pack(&m, &spec, &[Some(&[0x1FF])]).unwrap();
        let mut v = Vec::new();
        unpack(&packed, &spec, &mut [Some(&mut v)]).unwrap();
        assert_eq!(v, vec![0xFF]);
    }

    #[test]
    fn errors() {
        let spec = cache_spec();
        let m = Message::new(1, 2, 1, 1);
        assert_eq!(
            pack(&m, &spec, &[None, None]).unwrap_err(),
            MessageError::ArgCount { expected: 5, got: 2 }
        );
        assert!(matches!(
            pack(&m, &spec, &[Some(&[1, 2]), None, None, None, None]).unwrap_err(),
            MessageError::ArgLen { arg: 0, .. }
        ));
        assert_eq!(
            unpack(&[0u8; 4], &spec, &mut [None, None, None, None, None]).unwrap_err(),
            MessageError::Truncated
        );
    }

    /// An element wider than 8 bytes has no `u64` to travel in: both
    /// directions refuse it by name, before the buffer is touched. It used to
    /// shift by 64 and up — a panic in debug, the low word twice in release.
    #[test]
    fn wider_than_a_word_is_refused_not_shifted() {
        let u32 = netcl_sema::types::ScalarTy { bits: 32, signed: false };
        let wide = Ty::Rv { range: u32, value: u32 };
        assert_eq!(wide.size_bytes(), 12);
        let spec = Specification {
            items: vec![SpecItem { count: 1, ty: Ty::U8 }, SpecItem { count: 1, ty: wide }],
        };
        let refused = MessageError::ArgWidth { arg: 1, bytes: 12 };
        let m = Message::new(1, 2, 1, 1);
        let args = [Some(&[7][..]), Some(&[0x1122_3344_5566_7788][..])];
        assert_eq!(pack(&m, &spec, &args), Err(refused.clone()));
        let mut out = vec![0xAA; 3];
        assert_eq!(pack_into(&m, &spec, &args, &mut out), Err(refused.clone()));
        assert_eq!(out, [0xAA; 3], "a refused pack leaves the buffer alone");
        let mut v = vec![9];
        let wire = [0u8; NCL_HEADER_BYTES + 13];
        assert_eq!(unpack(&wire, &spec, &mut [None, Some(&mut v)]), Err(refused));
        assert_eq!(v, [9]);
        assert!(MessageError::ArgWidth { arg: 1, bytes: 12 }.to_string().contains("12 bytes"));
    }

    /// The packed bytes parse on the generated P4 program's parser — the
    /// wire format and the compiler agree.
    #[test]
    fn wire_format_matches_generated_parser() {
        let unit = netcl::Compiler::new(netcl::CompileOptions::default())
            .compile(
                "t.ncl",
                r#"
_kernel(1) _at(1) void k(char op, unsigned key, uint16_t &small,
                         uint32_t _spec(4) *arr) {
  arr[0] = key;
  small = 9;
}
"#,
            )
            .unwrap();
        let spec = unit.model.kernels[0].specification();
        let m = Message::new(5, 6, 1, 1);
        let packed =
            pack(&m, &spec, &[Some(&[7]), Some(&[0xAABBCCDD]), Some(&[3]), Some(&[1, 2, 3, 4])])
                .unwrap();
        let mut sw = netcl_bmv2::Switch::new(unit.devices[0].tna_p4.clone());
        let (pkt, _) = sw.process(&packed).unwrap();
        assert_eq!(pkt.get("ncl.src"), 5);
        assert_eq!(pkt.get("ncl.to"), 1);
        assert_eq!(pkt.get("args_c1.a0_op"), 7);
        assert_eq!(pkt.get("args_c1.a1_key"), 0xAABBCCDD);
        assert_eq!(pkt.get("arr_c1_a3[3].value"), 4);
        // Kernel ran: arr[0] = key, small = 9.
        assert_eq!(pkt.get("arr_c1_a3[0].value"), 0xAABBCCDD);
        assert_eq!(pkt.get("args_c1.a2_small"), 9);
    }
}
