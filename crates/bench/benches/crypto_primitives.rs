//! Substrate microbenchmarks: the first-party crypto primitives every
//! credential signature and Switchboard record rides on. Not a paper
//! figure per se, but contextualizes the F4/F5 numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use psf_crypto::{sha256, sha512, ChaCha20Poly1305, SigningKey};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("crypto");
    group.sample_size(30);

    for size in [64usize, 128, 1 << 10, 64 << 10] {
        let data = vec![0xabu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &data, |b, d| {
            b.iter(|| sha256(d));
        });
        group.bench_with_input(BenchmarkId::new("sha512", size), &data, |b, d| {
            b.iter(|| sha512(d));
        });
        let aead = ChaCha20Poly1305::new([7u8; 32]);
        group.bench_with_input(BenchmarkId::new("aead_seal", size), &data, |b, d| {
            b.iter(|| aead.seal(&[0u8; 12], b"", d));
        });
    }

    let sk = SigningKey::from_seed([1u8; 32]);
    let msg = b"dRBAC-delegation-v1 benchmark credential body";
    let sig = sk.sign(msg);
    group.bench_function("ed25519_sign", |b| {
        b.iter(|| sk.sign(msg));
    });
    group.bench_function("ed25519_verify", |b| {
        b.iter(|| sk.verifying_key().verify(msg, &sig).unwrap());
    });
    group.bench_function("x25519_dh", |b| {
        let secret = [9u8; 32];
        let peer = psf_crypto::x25519::x25519_base(&[5u8; 32]);
        b.iter(|| psf_crypto::x25519(&secret, &peer));
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
