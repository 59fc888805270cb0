//! The packed transfer format: how Fixpoint nodes exchange Fix values.
//!
//! The paper's nodes "delegate jobs to remote nodes by sending Fix
//! values — Blobs and Trees... as all dependencies are specified as part
//! of the packed binary format, Fixpoint doesn't need to maintain a
//! global data structure or perform multiple roundtrips" (§4.2.1). A
//! [`Parcel`] is that format: a root handle plus the data for a set of
//! objects, self-describing and verifiable (every payload is re-hashed
//! on import).
//!
//! Layout (all integers little endian):
//!
//! ```text
//! [ magic "FIXWIRE1" ][ root handle: 32 bytes ][ u32 object count ]
//! per object: [ handle: 32 bytes ][ u32 byte length ][ payload ]
//! ```
//!
//! Blob payloads are the raw bytes; Tree payloads are the canonical
//! 32-byte-per-entry serialization.

use crate::data::{Blob, Node, Tree};
use crate::error::{Error, Result};
use crate::handle::{DataType, Handle, Kind};

/// The 8-byte parcel magic.
pub const MAGIC: &[u8; 8] = b"FIXWIRE1";

/// Bytes of an object's header inside a parcel: its handle and length.
const OBJECT_HEADER: usize = 32 + 4;

/// A self-contained shipment of Fix objects plus a root of interest
/// (a thunk to evaluate remotely, or a value being returned).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parcel {
    /// What the shipment is about (need not be included in `objects` —
    /// it may be a thunk over them, or a literal).
    pub root: Handle,
    /// The shipped data, in an order chosen by the sender.
    pub objects: Vec<Node>,
}

impl Parcel {
    /// Creates a parcel.
    pub fn new(root: Handle, objects: Vec<Node>) -> Parcel {
        Parcel { root, objects }
    }

    /// Serializes to the packed wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(self.root.raw());
        out.extend_from_slice(&(self.objects.len() as u32).to_le_bytes());
        for node in &self.objects {
            out.extend_from_slice(node.handle().raw());
            let payload = match node {
                Node::Blob(b) => b.as_slice().to_vec(),
                Node::Tree(t) => t.canonical_bytes(),
            };
            out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            out.extend_from_slice(&payload);
        }
        out
    }

    /// Parses and *verifies* a parcel: every handle encoding must be
    /// canonical and every payload must hash to its declared handle —
    /// a receiving node never trusts the sender's names.
    pub fn from_bytes(data: &[u8]) -> Result<Parcel> {
        let verified = Parcel::verify(data)?;
        Ok(Parcel {
            root: verified.root,
            objects: verified.objects.into_iter().map(|(_, n)| n).collect(),
        })
    }

    /// [`from_bytes`](Parcel::from_bytes), keeping beside each object the
    /// canonical handle its payload was hashed to during verification,
    /// so a receiver that stores the objects need not hash them again.
    pub fn verify(data: &[u8]) -> Result<VerifiedParcel> {
        let fail = |r: &str| Error::Trap(format!("malformed parcel: {r}"));
        if data.len() < MAGIC.len() + 36 || &data[..MAGIC.len()] != MAGIC {
            return Err(fail("bad magic or truncated header"));
        }
        let mut pos = MAGIC.len();
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let s = data
                .get(*pos..*pos + n)
                .ok_or_else(|| fail("truncated parcel"))?;
            *pos += n;
            Ok(s)
        };

        let mut raw = [0u8; 32];
        raw.copy_from_slice(take(&mut pos, 32)?);
        let root = Handle::from_raw(raw)?;

        let count = {
            let b = take(&mut pos, 4)?;
            u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize
        };
        // The count is the sender's claim: reserve no more than the
        // remaining bytes could hold (an object is at least its 36-byte
        // header).
        if count > (data.len() - pos) / OBJECT_HEADER {
            return Err(fail("truncated parcel"));
        }
        let mut objects = Vec::with_capacity(count);
        for _ in 0..count {
            let mut raw = [0u8; 32];
            raw.copy_from_slice(take(&mut pos, 32)?);
            let declared = Handle::from_raw(raw)?;
            let len = {
                let b = take(&mut pos, 4)?;
                u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize
            };
            let payload = take(&mut pos, len)?;
            let node = match declared.kind() {
                Kind::Object(DataType::Blob) | Kind::Ref(DataType::Blob) => {
                    Node::Blob(Blob::from_slice(payload))
                }
                Kind::Object(DataType::Tree) | Kind::Ref(DataType::Tree) => {
                    Node::Tree(Tree::from_canonical_bytes(payload)?)
                }
                _ => return Err(fail("parcel object with a non-value handle")),
            };
            // Verify content addressing: the payload's canonical name must
            // be the declared one, whole — a literal's name is its bytes,
            // so comparing digests alone would pass any literal. A sender
            // names objects in canonical (Object) form, so the parcel
            // re-encodes to exactly the bytes received.
            let computed = node.handle();
            if computed != declared {
                return Err(Error::Trap(format!(
                    "parcel integrity failure: declared {declared}, got {computed}"
                )));
            }
            objects.push((computed, node));
        }
        if pos != data.len() {
            return Err(fail("trailing bytes"));
        }
        Ok(VerifiedParcel { root, objects })
    }

    /// Total payload bytes (the network cost of shipping this parcel).
    pub fn payload_bytes(&self) -> u64 {
        self.objects.iter().map(Node::transfer_size).sum()
    }
}

/// A parcel as [`Parcel::verify`] hands it over: each object beside the
/// canonical handle its bytes were hashed to on the way in. Only
/// `verify` builds one, so holding one means the names are checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifiedParcel {
    root: Handle,
    objects: Vec<(Handle, Node)>,
}

impl VerifiedParcel {
    /// What the shipment is about.
    pub fn root(&self) -> Handle {
        self.root
    }

    /// The shipped objects, each with its verified canonical handle.
    pub fn into_objects(self) -> Vec<(Handle, Node)> {
        self.objects
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Parcel {
        let blob = Blob::from_vec(vec![7u8; 100]);
        let tree = Tree::from_handles(vec![blob.handle(), Blob::from_slice(b"lit").handle()]);
        let thunk = tree.handle().application().unwrap();
        Parcel::new(thunk, vec![Node::Blob(blob), Node::Tree(tree)])
    }

    #[test]
    fn round_trip() {
        let p = sample();
        let rt = Parcel::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(rt, p);
        assert_eq!(rt.payload_bytes(), 100 + 64);
    }

    #[test]
    fn empty_parcel_round_trips() {
        let p = Parcel::new(Blob::from_slice(b"x").handle(), vec![]);
        assert_eq!(Parcel::from_bytes(&p.to_bytes()).unwrap(), p);
    }

    #[test]
    fn rejects_corrupted_payload() {
        let p = sample();
        let mut bytes = p.to_bytes();
        // Flip a byte inside the blob payload.
        let n = bytes.len();
        bytes[n - 80] ^= 0xFF;
        let err = Parcel::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
    }

    #[test]
    fn rejects_a_literal_whose_bytes_differ_from_its_name() {
        let abc = Blob::from_slice(b"abc").handle();
        let mut bytes = Parcel::new(abc, vec![Node::Blob(Blob::from_slice(b"abc"))]).to_bytes();
        let n = bytes.len();
        bytes[n - 3..].copy_from_slice(b"xyz");
        let err = Parcel::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("integrity"), "{err}");
        // The same object named as a Ref is not the canonical name either.
        let mut as_ref = Parcel::new(abc, vec![Node::Blob(Blob::from_slice(b"abc"))]).to_bytes();
        as_ref[44..76].copy_from_slice(abc.as_ref_handle().raw());
        assert!(Parcel::from_bytes(&as_ref).is_err());
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let p = sample();
        let bytes = p.to_bytes();
        assert!(Parcel::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Parcel::from_bytes(&extended).is_err());
        assert!(Parcel::from_bytes(b"NOTWIRE0").is_err());
    }

    #[test]
    fn rejects_hostile_object_count() {
        // 80 bytes claiming u32::MAX objects: the reservation must be
        // bounded by the bytes present, not by the claim.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(Blob::from_slice(b"x").handle().raw());
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 36]);
        assert_eq!(bytes.len(), 80);
        let err = Parcel::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("truncated parcel"), "{err}");
        // One object claimed and one header present still parses as far
        // as the header allows (here: a literal blob of length zero).
        let mut one = bytes.clone();
        one[40..44].copy_from_slice(&1u32.to_le_bytes());
        one[44..76].copy_from_slice(Blob::from_slice(b"").handle().raw());
        assert_eq!(Parcel::from_bytes(&one).unwrap().objects.len(), 1);
    }

    #[test]
    fn verify_names_each_object_with_its_canonical_handle() {
        let p = sample();
        let v = Parcel::verify(&p.to_bytes()).unwrap();
        assert_eq!(v.root(), p.root);
        let expect: Vec<(Handle, Node)> =
            p.objects.iter().map(|n| (n.handle(), n.clone())).collect();
        assert_eq!(v.into_objects(), expect);
    }

    #[test]
    fn rejects_thunk_handles_as_objects() {
        let tree = Tree::from_handles(vec![]);
        let thunk = tree.handle().application().unwrap();
        // Hand-craft a parcel claiming a thunk has a payload.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(thunk.raw());
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(thunk.raw());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        assert!(Parcel::from_bytes(&bytes).is_err());
    }
}
