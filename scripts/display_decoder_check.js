// Checks the browser client's frame decoder against the Rust encoder.
//
//   cargo run -q --release --offline --example display_frames > frames.jsonl
//   node scripts/display_decoder_check.js src/bin/waferd_display.html frames.jsonl
//
// Runs the page's own <script> in a node vm context with just enough of
// a DOM stubbed for its top level to load, then feeds every frame the
// example printed through that script's `decodeFrame` and requires the
// decoded geometry and pixels to equal what the Rust side expanded.
// It also requires every truncation of each frame to be rejected, and
// each checksum-valid non-canonical frame (tagged "reject") to fail
// with exactly the error the Rust decoder raises for it.
'use strict';
const fs = require('fs');
const vm = require('vm');

const [htmlPath, framesPath] = process.argv.slice(2);
const html = fs.readFileSync(htmlPath, 'utf8');
const script = /<script>([\s\S]*)<\/script>/.exec(html)[1];

const element = {
  getContext: () => ({}),
  addEventListener: () => {},
  focus: () => {},
};
const context = vm.createContext({
  document: {getElementById: () => element},
  fetch: () => Promise.reject(new Error('no network in the decoder check')),
  performance, TextEncoder, TextDecoder, Uint8Array, Uint32Array, DataView,
});
vm.runInContext(script, context);
const {decodeFrame, fromHex} = context;

function hex32(pixels) {
  let s = '';
  for (const p of pixels) s += p.toString(16).padStart(8, '0');
  return s;
}

// One frame per canonical-form rule; each must be in the input.
const rules = ['duplicate palette entry', 'palette order', 'unused palette entry',
  'palette index', 'overlong varint', 'run past area', 'run coverage'];
const rejected = new Set();
const encodings = new Set();
let frames = 0;
for (const line of fs.readFileSync(framesPath, 'utf8').split('\n')) {
  if (!line) continue;
  const want = JSON.parse(line);
  const bytes = fromHex(want.hex);
  if (want.reject) {
    let err = null;
    try { decodeFrame(bytes); } catch (e) { err = e.message; }
    if (err !== want.reject)
      throw new Error(`${want.name}: ${err === null ? 'decoded' : `rejected as "${err}"`}, want "${want.reject}"`);
    rejected.add(err);
    console.log(`  ${want.name}: rejected as "${err}" ok`);
    continue;
  }
  const got = decodeFrame(bytes);
  if (got.rects.length !== want.rects.length)
    throw new Error(`${want.name}: ${got.rects.length} rects, want ${want.rects.length}`);
  want.rects.forEach((w, i) => {
    const g = got.rects[i];
    for (const k of ['x', 'y', 'w', 'h']) {
      if (g[k] !== w[k]) throw new Error(`${want.name} rect ${i}: ${k} ${g[k]}, want ${w[k]}`);
    }
    if (hex32(g.pixels) !== w.pixels)
      throw new Error(`${want.name} rect ${i}: decoded pixels differ from the Rust expansion`);
    encodings.add(w.encoding);
  });
  for (let n = 0; n < bytes.length; n++) {
    let ok = false;
    try { decodeFrame(bytes.subarray(0, n)); } catch (e) { ok = true; }
    if (!ok) throw new Error(`${want.name}: truncation to ${n} bytes decoded`);
  }
  frames += 1;
  console.log(`  ${want.name}: ${want.rects.length} rect(s), ${bytes.length} bytes ok`);
}
if (frames < 2) throw new Error(`only ${frames} frame(s) checked`);
for (const e of [0, 1]) {
  if (!encodings.has(e)) throw new Error(`no rect used pixel encoding ${e}`);
}
for (const r of rules) {
  if (!rejected.has(r)) throw new Error(`no non-canonical frame checked "${r}"`);
}
