//! Ledger data types: addresses, accounts, transactions, receipts,
//! blocks and event logs.

use dsaudit_crypto::sha256::sha256;

/// A 20-byte account address (Ethereum-style).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 20]);

impl Address {
    /// Derives an address from a label (test/simulation convenience).
    pub fn from_label(label: &str) -> Self {
        let h = sha256(label.as_bytes());
        let mut out = [0u8; 20];
        out.copy_from_slice(&h[12..]);
        Self(out)
    }
}

impl std::fmt::Display for Address {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x")?;
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

/// Wei balances (1 ETH = 10^18 wei).
pub type Wei = u128;

/// Converts whole ETH to wei.
pub fn eth(amount: u64) -> Wei {
    amount as Wei * 1_000_000_000_000_000_000
}

/// Converts gwei to wei.
pub fn gwei(amount: u64) -> Wei {
    amount as Wei * 1_000_000_000
}

/// An externally-owned or contract account.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Account {
    /// Spendable balance in wei.
    pub balance: Wei,
    /// Transaction counter.
    pub nonce: u64,
}

/// What a transaction does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TxKind {
    /// Plain value transfer.
    Transfer,
    /// Call into a deployed contract with an opaque payload.
    Call {
        /// Method discriminator (contract-defined).
        method: String,
        /// Serialized arguments.
        data: Vec<u8>,
    },
}

/// A signed transaction (signatures are elided in the simulator; the
/// sender is authenticated by construction).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transaction {
    /// Sender.
    pub from: Address,
    /// Recipient (contract or EOA).
    pub to: Address,
    /// Attached value in wei.
    pub value: Wei,
    /// Payload.
    pub kind: TxKind,
}

impl Transaction {
    /// Payload size in bytes, for gas/throughput accounting.
    pub fn payload_bytes(&self) -> usize {
        match &self.kind {
            TxKind::Transfer => 0,
            TxKind::Call { method, data } => method.len() + data.len(),
        }
    }
}

/// Execution status of a mined transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxStatus {
    /// Executed successfully.
    Success,
    /// Reverted; state changes rolled back, gas still charged.
    Reverted,
}

/// Result of executing one transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// Success/revert.
    pub status: TxStatus,
    /// Gas consumed.
    pub gas_used: u64,
    /// Events emitted during execution.
    pub logs: Vec<Event>,
    /// Revert reason, when reverted.
    pub revert_reason: Option<String>,
}

/// A contract event (broadcast in Fig. 2: "negotiated", "challenged",
/// "proofposted", "pass"/"fail" carrying the round's outcome, ...).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Emitting contract.
    pub contract: Address,
    /// Event name.
    pub name: String,
    /// Opaque payload.
    pub data: Vec<u8>,
}

/// A mined block.
#[derive(Clone, Debug)]
pub struct Block {
    /// Height.
    pub number: u64,
    /// Unix-ish timestamp (simulation clock, seconds).
    pub timestamp: u64,
    /// Included transactions with their receipts.
    pub txs: Vec<(Transaction, Receipt)>,
    /// Total bytes of the block (payloads + envelopes), for Fig. 10.
    pub size_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn address_deterministic() {
        assert_eq!(Address::from_label("alice"), Address::from_label("alice"));
        assert_ne!(Address::from_label("alice"), Address::from_label("bob"));
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(eth(1), 1_000_000_000_000_000_000);
        assert_eq!(gwei(5), 5_000_000_000);
        assert_eq!(eth(1), gwei(1_000_000_000));
    }

    #[test]
    fn payload_accounting() {
        let t = Transaction {
            from: Address::from_label("a"),
            to: Address::from_label("b"),
            value: 0,
            kind: TxKind::Call {
                method: "prove".into(),
                data: vec![0u8; 288],
            },
        };
        assert_eq!(t.payload_bytes(), 5 + 288);
    }
}
