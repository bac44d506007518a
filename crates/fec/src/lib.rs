//! # osmosis-fec
//!
//! The OSMOSIS forward-error-correction subsystem (paper §IV.C): GF(2⁸)
//! arithmetic with the paper's generator polynomial, the (272, 256, 3)
//! generalized non-binary cyclic Hamming code, analytic BER-tier models
//! (raw → post-FEC → post-retransmission), a bit-error channel, and a
//! hop-by-hop link-level go-back-N retransmission protocol.
//!
//! Together these reproduce the paper's two-tier reliability claim: raw
//! optical BER of 10⁻¹⁰…10⁻¹² → better than 10⁻¹⁷ after FEC → better
//! than 10⁻²¹ after hop-by-hop retransmission, at 6.25% coding overhead.
//!
//! ```
//! use osmosis_fec::{Decode, OsmosisCode};
//!
//! let code = OsmosisCode::new();
//! let data = [0x42u8; 32];                 // 256 data bits
//! let mut block = code.encode(&data);      // 272 coded bits
//!
//! block[13] ^= 0x04;                       // a single bit error...
//! assert!(matches!(code.decode(&mut block), Decode::Corrected { .. }));
//! assert_eq!(&block[..32], &data);         // ...is corrected in place
//!
//! block[3] ^= 0x01;                        // a double-bit error...
//! block[27] ^= 0x80;
//! assert_eq!(code.decode(&mut block), Decode::Detected); // ...is detected
//! ```

#![deny(missing_docs)]

pub mod analytics;
pub mod channel;
pub mod code;
pub mod gf256;
pub mod retransmission;

pub use analytics::{block_outcomes, user_ber_fec_only, user_ber_with_retransmission};
pub use channel::BitErrorChannel;
pub use code::{decode_payload, encode_payload, Decode, OsmosisCode};
pub use retransmission::{run_reliable_link, LinkConfig, LinkReport};
