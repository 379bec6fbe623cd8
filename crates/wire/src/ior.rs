//! Interoperable Object References (IORs).
//!
//! An IOR is how CORBA 2.0 makes an object reference meaningful across
//! ORBs from different vendors: a repository type id plus a sequence of
//! *tagged profiles*, each an opaque encapsulation describing one way of
//! reaching the object. The IIOP profile (tag 0) carries protocol version,
//! host, port, and the opaque object key that the target ORB's object
//! adapter uses to find the servant.
//!
//! WebFINDIT hands IORs around constantly: the naming service resolves a
//! database name to an IOR, co-database descriptors embed the IOR of their
//! information-source interface, and service-link traversal returns IORs
//! of remote co-database servers.

use crate::cdr::{ByteOrder, CdrReader, CdrWriter};
use crate::{WireError, WireResult};
use std::fmt;

/// Profile tag for IIOP (`TAG_INTERNET_IOP` in the CORBA spec).
pub const TAG_INTERNET_IOP: u32 = 0;
/// Profile tag for multiple components (unused here but reserved).
pub const TAG_MULTIPLE_COMPONENTS: u32 = 1;

/// An opaque tagged profile as it appears inside an IOR.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TaggedProfile {
    /// Profile tag (e.g. [`TAG_INTERNET_IOP`]).
    pub tag: u32,
    /// Encapsulated profile body (first octet is a byte-order flag).
    pub data: Vec<u8>,
}

/// The decoded form of an IIOP profile.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IiopProfile {
    /// IIOP major version (always 1 here).
    pub version_major: u8,
    /// IIOP minor version (0 or 2).
    pub version_minor: u8,
    /// Host name or address of the listening ORB endpoint.
    pub host: String,
    /// TCP port of the endpoint.
    pub port: u16,
    /// Opaque object key interpreted only by the target object adapter.
    pub object_key: Vec<u8>,
}

impl IiopProfile {
    /// Encode into a [`TaggedProfile`] encapsulation using the given order.
    pub fn to_tagged(&self, order: ByteOrder) -> WireResult<TaggedProfile> {
        let mut w = CdrWriter::new(order);
        w.write_octet(order.flag());
        w.write_octet(self.version_major);
        w.write_octet(self.version_minor);
        w.write_string(&self.host)?;
        w.write_ushort(self.port);
        w.write_octets(&self.object_key);
        Ok(TaggedProfile {
            tag: TAG_INTERNET_IOP,
            data: w.into_bytes(),
        })
    }

    /// Decode from a [`TaggedProfile`], which must carry the IIOP tag.
    pub fn from_tagged(profile: &TaggedProfile) -> WireResult<IiopProfile> {
        if profile.tag != TAG_INTERNET_IOP {
            return Err(WireError::BadTag {
                context: "IIOP profile tag",
                tag: profile.tag,
            });
        }
        let mut r = CdrReader::for_encapsulation(&profile.data)?;
        let version_major = r.read_octet()?;
        let version_minor = r.read_octet()?;
        if version_major != 1 {
            return Err(WireError::UnsupportedVersion {
                major: version_major,
                minor: version_minor,
            });
        }
        let host = r.read_string()?;
        let port = r.read_ushort()?;
        let object_key = r.read_octets()?;
        Ok(IiopProfile {
            version_major,
            version_minor,
            host,
            port,
            object_key,
        })
    }
}

/// An interoperable object reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ior {
    /// Repository id of the most-derived interface, e.g.
    /// `IDL:webfindit/InformationSource:1.0`.
    pub type_id: String,
    /// One or more ways to reach the object.
    pub profiles: Vec<TaggedProfile>,
}

impl Ior {
    /// Build an IOR with a single IIOP profile.
    pub fn new_iiop(
        type_id: impl Into<String>,
        host: impl Into<String>,
        port: u16,
        object_key: impl Into<Vec<u8>>,
    ) -> Ior {
        let profile = IiopProfile {
            version_major: 1,
            version_minor: 2,
            host: host.into(),
            port,
            object_key: object_key.into(),
        };
        Ior {
            type_id: type_id.into(),
            profiles: vec![profile
                .to_tagged(ByteOrder::BigEndian)
                .expect("static profile encodes")],
        }
    }

    /// A nil object reference (empty type id, no profiles).
    pub fn nil() -> Ior {
        Ior {
            type_id: String::new(),
            profiles: Vec::new(),
        }
    }

    /// True for nil references.
    pub fn is_nil(&self) -> bool {
        self.profiles.is_empty()
    }

    /// The first IIOP profile, decoded, if any.
    pub fn iiop_profile(&self) -> Option<IiopProfile> {
        self.profiles
            .iter()
            .filter(|p| p.tag == TAG_INTERNET_IOP)
            .find_map(|p| IiopProfile::from_tagged(p).ok())
    }

    /// Every decodable IIOP profile, in IOR order.
    ///
    /// A multi-profile IOR lists alternate endpoints for the same
    /// object; clients fall back to later profiles when earlier ones
    /// are unreachable.
    pub fn iiop_profiles(&self) -> Vec<IiopProfile> {
        self.profiles
            .iter()
            .filter(|p| p.tag == TAG_INTERNET_IOP)
            .filter_map(|p| IiopProfile::from_tagged(p).ok())
            .collect()
    }

    /// Encode into a CDR stream.
    pub fn encode(&self, w: &mut CdrWriter) -> WireResult<()> {
        w.write_string(&self.type_id)?;
        w.write_ulong(self.profiles.len() as u32);
        for p in &self.profiles {
            w.write_ulong(p.tag);
            w.write_octets(&p.data);
        }
        Ok(())
    }

    /// Decode from a CDR stream.
    pub fn decode(r: &mut CdrReader<'_>) -> WireResult<Ior> {
        let type_id = r.read_string()?;
        let n = r.read_ulong()? as usize;
        if n > r.remaining() {
            return Err(WireError::TooLarge {
                declared: n as u64,
                limit: r.remaining() as u64,
            });
        }
        let mut profiles = Vec::with_capacity(n);
        for _ in 0..n {
            let tag = r.read_ulong()?;
            let data = r.read_octets()?;
            profiles.push(TaggedProfile { tag, data });
        }
        Ok(Ior { type_id, profiles })
    }

    /// Render as the classic `IOR:<hex>` stringified form.
    ///
    /// The hex body is a big-endian encapsulation of the IOR, exactly as
    /// `object_to_string` produced in 1990s ORBs — which is how object
    /// references were pasted into configuration files and web pages.
    pub fn to_stringified(&self) -> String {
        let mut w = CdrWriter::new(ByteOrder::BigEndian);
        w.write_octet(ByteOrder::BigEndian.flag());
        self.encode(&mut w).expect("IOR encodes");
        let bytes = w.into_bytes();
        let mut s = String::with_capacity(4 + bytes.len() * 2);
        s.push_str("IOR:");
        for b in bytes {
            use std::fmt::Write;
            write!(s, "{b:02x}").expect("writing to String cannot fail");
        }
        s
    }

    /// Parse the `IOR:<hex>` stringified form.
    pub fn from_stringified(s: &str) -> WireResult<Ior> {
        let hex = s.strip_prefix("IOR:").ok_or(WireError::BadTag {
            context: "stringified IOR prefix",
            tag: 0,
        })?;
        if hex.len() % 2 != 0 {
            return Err(WireError::BadTag {
                context: "stringified IOR hex length",
                tag: hex.len() as u32,
            });
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for chunk in hex.as_bytes().chunks(2) {
            let hi = (chunk[0] as char).to_digit(16);
            let lo = (chunk[1] as char).to_digit(16);
            match (hi, lo) {
                (Some(h), Some(l)) => bytes.push((h * 16 + l) as u8),
                _ => {
                    return Err(WireError::BadTag {
                        context: "stringified IOR hex digit",
                        tag: chunk[0] as u32,
                    })
                }
            }
        }
        let mut r = CdrReader::for_encapsulation(&bytes)?;
        Ior::decode(&mut r)
    }
}

impl fmt::Display for Ior {
    /// Shows the type id and the primary endpoint — the form used in log
    /// lines and trace output.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_nil() {
            return write!(f, "IOR(nil)");
        }
        match self.iiop_profile() {
            Some(p) => write!(
                f,
                "IOR({} @ {}:{} key={})",
                self.type_id,
                p.host,
                p.port,
                String::from_utf8_lossy(&p.object_key)
            ),
            None => write!(f, "IOR({}, {} profiles)", self.type_id, self.profiles.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iiop_profile_roundtrip() {
        let p = IiopProfile {
            version_major: 1,
            version_minor: 2,
            host: "dba.icis.qut.edu.au".into(),
            port: 9042,
            object_key: b"RBH/isi".to_vec(),
        };
        for order in [ByteOrder::BigEndian, ByteOrder::LittleEndian] {
            let tagged = p.to_tagged(order).unwrap();
            assert_eq!(IiopProfile::from_tagged(&tagged).unwrap(), p);
        }
    }

    #[test]
    fn ior_cdr_roundtrip() {
        let ior = Ior::new_iiop(
            "IDL:webfindit/CoDatabase:1.0",
            "orbix.qut.edu.au",
            8831,
            b"codb/RBH".to_vec(),
        );
        let mut w = CdrWriter::new(ByteOrder::LittleEndian);
        ior.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, ByteOrder::LittleEndian);
        assert_eq!(Ior::decode(&mut r).unwrap(), ior);
    }

    #[test]
    fn stringified_roundtrip() {
        let ior = Ior::new_iiop("IDL:X:1.0", "h", 1, b"k".to_vec());
        let s = ior.to_stringified();
        assert!(s.starts_with("IOR:"));
        assert_eq!(Ior::from_stringified(&s).unwrap(), ior);
    }

    #[test]
    fn stringified_rejects_garbage() {
        assert!(Ior::from_stringified("not-an-ior").is_err());
        assert!(Ior::from_stringified("IOR:zz").is_err());
        assert!(Ior::from_stringified("IOR:abc").is_err()); // odd length
    }

    #[test]
    fn nil_reference() {
        let nil = Ior::nil();
        assert!(nil.is_nil());
        assert!(nil.iiop_profile().is_none());
        assert_eq!(nil.to_string(), "IOR(nil)");
    }

    #[test]
    fn wrong_profile_tag_rejected() {
        let tp = TaggedProfile {
            tag: TAG_MULTIPLE_COMPONENTS,
            data: vec![0],
        };
        assert!(IiopProfile::from_tagged(&tp).is_err());
    }

    #[test]
    fn foreign_profiles_are_preserved_opaquely() {
        // An ORB must forward profiles it does not understand untouched.
        let mut ior = Ior::new_iiop("IDL:X:1.0", "h", 1, b"k".to_vec());
        ior.profiles.push(TaggedProfile {
            tag: 0xBEEF,
            data: vec![1, 2, 3],
        });
        let mut w = CdrWriter::new(ByteOrder::BigEndian);
        ior.encode(&mut w).unwrap();
        let bytes = w.into_bytes();
        let mut r = CdrReader::new(&bytes, ByteOrder::BigEndian);
        let back = Ior::decode(&mut r).unwrap();
        assert_eq!(back.profiles.len(), 2);
        assert_eq!(back.profiles[1].tag, 0xBEEF);
        assert_eq!(back.profiles[1].data, vec![1, 2, 3]);
        // The IIOP profile is still found despite the foreign one.
        assert!(back.iiop_profile().is_some());
    }
}
