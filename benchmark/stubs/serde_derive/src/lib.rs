//! Offline stand-in for `serde_derive`: the library crates only *derive*
//! `Serialize`/`Deserialize` (nothing in their dependency closure
//! serializes), so both derives expand to nothing and `#[serde(..)]`
//! stays a recognised helper attribute.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
